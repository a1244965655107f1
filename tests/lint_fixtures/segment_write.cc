// LINT-AS: src/core/bad_segment_write.cc
// Fixture for tools/lint_malt_api.py --selftest: raw stores into segment
// memory outside the transport implementations. Not compiled.

#include <cstring>

void BadSegmentWrites(void* region_base, const void* src, unsigned long n) {
  std::memcpy(region_base, src, n);  // EXPECT-LINT(segment-write)
  AtomicStoreBytes(region_base, src, n);  // EXPECT-LINT(segment-write)
  GuardedStoreBytes(region_base, src, n);  // EXPECT-LINT(segment-write)
}

void BadRawSpan(Transport& t, MrHandle mr) {
  auto span = t.Data(mr);  // EXPECT-LINT(segment-write)
  (void)span;
}
