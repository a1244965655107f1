// Dataset file I/O — the paper's load_data(f) loads training data from
// NFS/HDFS into each replica. We support the standard LIBSVM/SVMlight text
// format used by the actual RCV1/PASCAL/splice distributions:
//
//   <label> <index>:<value> <index>:<value> ...
//
// with 1-based indices, '#' comments, and blank lines ignored. Loaders
// return Status so corrupt files are reported, not crashed on.

#ifndef SRC_ML_IO_H_
#define SRC_ML_IO_H_

#include <string>

#include "src/base/status.h"
#include "src/ml/dataset.h"

namespace malt {

// Parses one LIBSVM line and appends it to `out` as a row with sorted
// indices. Returns false for blank/comment lines; error status for malformed
// input, including an index repeated within the line (as libsvm's own
// reader does). Nothing is appended unless the result is true.
[[nodiscard]] Result<bool> ParseLibsvmLine(const std::string& line, SparseRows* out);

// Loads a LIBSVM file. dim is grown to fit the largest index seen; labels
// are mapped to ±1 (0/1 and ±1 conventions both accepted).
[[nodiscard]] Result<SparseDataset> LoadLibsvm(const std::string& path);

// Loads train and test files into one dataset.
[[nodiscard]] Result<SparseDataset> LoadLibsvm(const std::string& train_path, const std::string& test_path);

// Writes examples in LIBSVM format (1-based indices). Round-trips with
// LoadLibsvm up to float formatting.
[[nodiscard]] Status SaveLibsvm(const SparseDataset& data, const std::string& train_path,
                  const std::string& test_path);

}  // namespace malt

#endif  // SRC_ML_IO_H_
