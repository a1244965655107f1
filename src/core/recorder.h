// Per-rank experiment recorder: labelled (x, y) series such as loss-vs-time
// and loss-vs-iteration curves, plus scalar counters. Benches read these to
// print the paper's figures.

#ifndef SRC_CORE_RECORDER_H_
#define SRC_CORE_RECORDER_H_

#include <map>
#include <string>
#include <vector>

#include "src/base/stats.h"

namespace malt {

class Recorder {
 public:
  void Record(const std::string& series, double x, double y) {
    Series& s = series_[series];
    if (s.label.empty()) {
      s.label = series;
    }
    s.Add(x, y);
  }

  void Count(const std::string& counter, double delta = 1.0) { counters_[counter] += delta; }
  void Set(const std::string& counter, double value) { counters_[counter] = value; }

  bool Has(const std::string& series) const { return series_.count(series) > 0; }
  const Series& Get(const std::string& series) const { return series_.at(series); }
  double Counter(const std::string& counter) const {
    auto it = counters_.find(counter);
    return it == counters_.end() ? 0.0 : it->second;
  }

  // Folds another rank's recorder into this one: counters add, series points
  // append in source order (benches merge per-rank curves into cluster-wide
  // ones this way).
  void Merge(const Recorder& other) {
    for (const auto& [name, s] : other.series_) {
      Series& mine = series_[name];
      if (mine.label.empty()) {
        mine.label = s.label.empty() ? name : s.label;
      }
      mine.x.insert(mine.x.end(), s.x.begin(), s.x.end());
      mine.y.insert(mine.y.end(), s.y.begin(), s.y.end());
    }
    for (const auto& [name, value] : other.counters_) {
      counters_[name] += value;
    }
  }

 private:
  std::map<std::string, Series> series_;
  std::map<std::string, double> counters_;
};

}  // namespace malt

#endif  // SRC_CORE_RECORDER_H_
