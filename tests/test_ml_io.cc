// LIBSVM file format tests: parsing, error reporting, round-trip.

#include "src/ml/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace malt {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "malt_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, ParseLineBasics) {
  SparseRows rows;
  Result<bool> parsed = ParseLibsvmLine("+1 3:0.5 7:-1.25 100:2", &rows);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed);
  ASSERT_EQ(rows.size(), 1u);
  const SparseExample ex = rows[0];
  EXPECT_EQ(ex.label, 1.0f);
  ASSERT_EQ(ex.idx.size(), 3u);
  EXPECT_EQ(ex.idx[0], 2u);  // 1-based -> 0-based
  EXPECT_EQ(ex.idx[2], 99u);
  EXPECT_FLOAT_EQ(ex.val[1], -1.25f);
}

TEST_F(IoTest, ParseLineLabelConventions) {
  SparseRows rows;
  ASSERT_TRUE(ParseLibsvmLine("-1 1:1", &rows).ok());
  ASSERT_TRUE(ParseLibsvmLine("0 1:1", &rows).ok());
  ASSERT_TRUE(ParseLibsvmLine("1 1:1", &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].label, -1.0f);
  EXPECT_EQ(rows[1].label, -1.0f);  // 0/1 convention maps 0 to -1
  EXPECT_EQ(rows[2].label, 1.0f);
}

TEST_F(IoTest, ParseLineSkipsBlankAndComments) {
  SparseRows rows;
  Result<bool> blank = ParseLibsvmLine("   ", &rows);
  ASSERT_TRUE(blank.ok());
  EXPECT_FALSE(*blank);
  Result<bool> comment = ParseLibsvmLine("# header", &rows);
  ASSERT_TRUE(comment.ok());
  EXPECT_FALSE(*comment);
  EXPECT_TRUE(rows.empty());
}

TEST_F(IoTest, ParseLineRejectsMalformed) {
  SparseRows rows;
  EXPECT_FALSE(ParseLibsvmLine("abc 1:1", &rows).ok());
  EXPECT_FALSE(ParseLibsvmLine("+1 0:1", &rows).ok());    // 1-based indices
  EXPECT_FALSE(ParseLibsvmLine("+1 5", &rows).ok());      // missing colon
  EXPECT_FALSE(ParseLibsvmLine("+1 5:", &rows).ok());     // missing value
  EXPECT_TRUE(rows.empty());
}

TEST_F(IoTest, ParseLineSortsUnsortedFeatures) {
  SparseRows rows;
  ASSERT_TRUE(ParseLibsvmLine("+1 9:9 2:2 5:5", &rows).ok());
  const SparseExample ex = rows[0];
  ASSERT_EQ(ex.idx.size(), 3u);
  EXPECT_EQ(ex.idx[0], 1u);
  EXPECT_EQ(ex.idx[1], 4u);
  EXPECT_EQ(ex.idx[2], 8u);
  EXPECT_FLOAT_EQ(ex.val[0], 2.0f);
  EXPECT_FLOAT_EQ(ex.val[2], 9.0f);
}

// A row's indices are a set (the SVM step and the codecs rely on it), so a
// repeated index is an error, sorted or not, as in libsvm's own reader.
TEST_F(IoTest, ParseLineRejectsRepeatedIndex) {
  SparseRows rows;
  Result<bool> adjacent = ParseLibsvmLine("+1 2:1 2:3", &rows);
  ASSERT_FALSE(adjacent.ok());
  EXPECT_EQ(adjacent.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(adjacent.status().message().find("repeated"), std::string_view::npos);
  Result<bool> unsorted = ParseLibsvmLine("-1 7:1 2:1 7:2", &rows);
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rows.empty());

  const std::string path = Write("dup.svm", "+1 1:1 3:1\n-1 4:1 4:2\n");
  Result<SparseDataset> data = LoadLibsvm(path);
  ASSERT_FALSE(data.ok());
  EXPECT_NE(data.status().message().find(":2:"), std::string_view::npos);
}

TEST_F(IoTest, LoadFileAndDim) {
  const std::string path = Write("train.svm",
                                 "# comment\n"
                                 "+1 1:0.5 10:1\n"
                                 "\n"
                                 "-1 3:2\n");
  Result<SparseDataset> data = LoadLibsvm(path);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->train.size(), 2u);
  EXPECT_EQ(data->dim, 10u);  // largest index
}

TEST_F(IoTest, LoadMissingFileFails) {
  Result<SparseDataset> data = LoadLibsvm((dir_ / "nope.svm").string());
  EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, LoadErrorCarriesLineNumber) {
  const std::string path = Write("bad.svm", "+1 1:1\n+1 broken\n");
  Result<SparseDataset> data = LoadLibsvm(path);
  ASSERT_FALSE(data.ok());
  EXPECT_NE(data.status().message().find(":2:"), std::string_view::npos);
}

TEST_F(IoTest, RoundTrip) {
  ClassificationConfig config;
  config.dim = 500;
  config.train_n = 200;
  config.test_n = 50;
  config.avg_nnz = 12;
  SparseDataset original = MakeClassification(config);
  const std::string train = (dir_ / "t.svm").string();
  const std::string test = (dir_ / "v.svm").string();
  ASSERT_TRUE(SaveLibsvm(original, train, test).ok());

  Result<SparseDataset> loaded = LoadLibsvm(train, test);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->train.size(), original.train.size());
  ASSERT_EQ(loaded->test.size(), original.test.size());
  for (size_t i = 0; i < original.train.size(); ++i) {
    EXPECT_EQ(loaded->train[i].label, original.train[i].label);
    ASSERT_TRUE(std::ranges::equal(loaded->train[i].idx, original.train[i].idx));
    for (size_t k = 0; k < original.train[i].val.size(); ++k) {
      EXPECT_NEAR(loaded->train[i].val[k], original.train[i].val[k], 1e-5);
    }
  }
}

}  // namespace
}  // namespace malt
