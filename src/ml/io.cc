#include "src/ml/io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace malt {

Result<bool> ParseLibsvmLine(const std::string& line, SparseRows* out) {
  size_t pos = line.find_first_not_of(" \t\r");
  if (pos == std::string::npos || line[pos] == '#') {
    return false;
  }

  char* cursor = nullptr;
  const char* text = line.c_str() + pos;
  const double label = std::strtod(text, &cursor);
  if (cursor == text) {
    return InvalidArgumentError("bad label in line: " + line.substr(0, 60));
  }
  std::vector<uint32_t> idx;
  std::vector<float> val;

  const char* p = cursor;
  for (;;) {
    while (*p == ' ' || *p == '\t') {
      ++p;
    }
    if (*p == '\0' || *p == '\r' || *p == '#') {
      break;
    }
    const long index = std::strtol(p, &cursor, 10);
    if (cursor == p || *cursor != ':' || index < 1) {
      return InvalidArgumentError("bad feature token in line: " + line.substr(0, 60));
    }
    p = cursor + 1;
    const double value = std::strtod(p, &cursor);
    if (cursor == p) {
      return InvalidArgumentError("bad feature value in line: " + line.substr(0, 60));
    }
    p = cursor;
    idx.push_back(static_cast<uint32_t>(index - 1));  // to 0-based
    val.push_back(static_cast<float>(value));
  }
  if (!std::is_sorted(idx.begin(), idx.end())) {
    // LIBSVM files are canonically sorted; tolerate unsorted input by fixing
    // it (gather codecs and dot products rely on sortedness).
    std::vector<size_t> order(idx.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return idx[a] < idx[b]; });
    std::vector<uint32_t> sorted_idx(idx.size());
    std::vector<float> sorted_val(val.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_idx[i] = idx[order[i]];
      sorted_val[i] = val[order[i]];
    }
    idx = std::move(sorted_idx);
    val = std::move(sorted_val);
  }
  if (std::adjacent_find(idx.begin(), idx.end()) != idx.end()) {
    return InvalidArgumentError("repeated feature index in line: " + line.substr(0, 60));
  }
  out->Append(idx, val, label > 0 ? 1.0f : -1.0f);
  return true;
}

namespace {

Result<SparseRows> LoadExamples(const std::string& path, size_t* dim) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open '" + path + "'");
  }
  SparseRows examples;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    Result<bool> parsed = ParseLibsvmLine(line, &examples);
    if (!parsed.ok()) {
      return Status(parsed.status().code(), path + ":" + std::to_string(line_number) + ": " +
                                                std::string(parsed.status().message()));
    }
    if (!*parsed) {
      continue;
    }
    const SparseExample ex = examples[examples.size() - 1];
    if (!ex.idx.empty()) {
      *dim = std::max(*dim, static_cast<size_t>(ex.idx.back()) + 1);
    }
  }
  return examples;
}

}  // namespace

Result<SparseDataset> LoadLibsvm(const std::string& path) {
  SparseDataset data;
  data.name = path;
  Result<SparseRows> train = LoadExamples(path, &data.dim);
  if (!train.ok()) {
    return train.status();
  }
  data.train = *std::move(train);
  return data;
}

Result<SparseDataset> LoadLibsvm(const std::string& train_path, const std::string& test_path) {
  Result<SparseDataset> data = LoadLibsvm(train_path);
  if (!data.ok()) {
    return data;
  }
  Result<SparseRows> test = LoadExamples(test_path, &data->dim);
  if (!test.ok()) {
    return test.status();
  }
  data->test = *std::move(test);
  return data;
}

namespace {

Status SaveExamples(const SparseRows& examples, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot write '" + path + "'");
  }
  for (const SparseExample ex : examples) {
    out << (ex.label > 0 ? "+1" : "-1");
    for (size_t k = 0; k < ex.idx.size(); ++k) {
      out << ' ' << (ex.idx[k] + 1) << ':' << ex.val[k];
    }
    out << '\n';
  }
  return out.good() ? OkStatus() : InternalError("write error on '" + path + "'");
}

}  // namespace

Status SaveLibsvm(const SparseDataset& data, const std::string& train_path,
                  const std::string& test_path) {
  MALT_RETURN_IF_ERROR(SaveExamples(data.train, train_path));
  return SaveExamples(data.test, test_path);
}

}  // namespace malt
