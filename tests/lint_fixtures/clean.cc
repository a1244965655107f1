// LINT-AS: src/core/clean.cc
// Fixture for tools/lint_malt_api.py --selftest: idiomatic code that must
// produce zero findings — the self-test fails on spurious hits too.
// Not compiled.

#include "src/base/mutex.h"
#include "src/sim/engine.h"  // the runtime owns the simulator: allowed in src/core/

class GoodLocking {
 public:
  void Touch() {
    malt::MutexLock lock(mu_);
    ++n_;
  }
  void Record(MetricRegistry& reg, int src, int dst, long bytes) {
    reg.GetCounter("fabric.bytes_sent")->Add(bytes);
    reg.GetCounter(EdgeMetricName(src, dst, "bytes"))->Add(bytes);
  }
  void Post(Transport& t, MrHandle mr, std::span<const std::byte> data) {
    t.Write(mr, 0, data);  // the sanctioned store path
  }

 private:
  malt::Mutex mu_;
  int n_ = 0;
};
