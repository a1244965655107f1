#include "src/base/seqlock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

namespace malt {
namespace {

TEST(SeqLock, CleanReadNoRetry) {
  SeqLock lock;
  char src[16] = "hello";
  char dst[16] = {};
  EXPECT_EQ(lock.ReadCopyAtomic(dst, src, sizeof(src)), 0);
  EXPECT_STREQ(dst, "hello");
}

TEST(SeqLock, TryReadFailsMidWrite) {
  SeqLock lock;
  char src[8] = "old";
  char dst[8] = {};
  lock.WriteBegin();
  EXPECT_TRUE(lock.WriteInProgress());
  EXPECT_FALSE(lock.TryReadCopyAtomic(dst, src, sizeof(src)));
  lock.WriteEnd();
  EXPECT_FALSE(lock.WriteInProgress());
  EXPECT_TRUE(lock.TryReadCopyAtomic(dst, src, sizeof(src)));
}

// The guarded helpers move exactly memcpy's bytes whatever the alignment of
// either side: every src/dst misalignment 0-15 against lengths that straddle
// word and cache-line boundaries, up to a 188,608-byte SVM slot. Bytes around
// the destination window must stay untouched.
TEST(SeqLock, GuardedCopiesEqualMemcpy) {
  constexpr size_t kLens[] = {0, 1, 7, 8, 9, 63, 64, 65, 4095, 188608};
  constexpr size_t kPad = 16;
  for (size_t len : kLens) {
    std::vector<unsigned char> src(len + kPad);
    for (size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<unsigned char>(i * 131 + 7);
    }
    std::vector<unsigned char> want(len + 2 * kPad);
    std::vector<unsigned char> stored(want.size());
    std::vector<unsigned char> loaded(want.size());
    for (size_t src_off = 0; src_off < 16; ++src_off) {
      for (size_t dst_off = 0; dst_off < 16; ++dst_off) {
        std::fill(want.begin(), want.end(), 0xee);
        std::fill(stored.begin(), stored.end(), 0xee);
        std::fill(loaded.begin(), loaded.end(), 0xee);
        std::memcpy(want.data() + dst_off, src.data() + src_off, len);
        GuardedStoreBytes(stored.data() + dst_off, src.data() + src_off, len);
        GuardedLoadBytes(loaded.data() + dst_off, src.data() + src_off, len);
        ASSERT_EQ(stored, want) << "store len " << len << " src+" << src_off << " dst+"
                                << dst_off;
        ASSERT_EQ(loaded, want) << "load len " << len << " src+" << src_off << " dst+"
                                << dst_off;
      }
    }
  }
}

TEST(SeqLock, SequenceAdvancesByTwoPerWrite) {
  SeqLock lock;
  EXPECT_EQ(lock.sequence(), 0u);
  lock.WriteBegin();
  EXPECT_EQ(lock.sequence(), 1u);
  lock.WriteEnd();
  EXPECT_EQ(lock.sequence(), 2u);
}

// Stamp overflow: the sequence is a uint64 that only ever increments, so one
// write straddling 2^64 - 2 wraps it to zero. The parity discipline (odd =
// in flight) and validation must survive the wrap — these start from the
// boundary via the explicit-initial-sequence constructor, the same
// configuration the model checker's seqlock_overflow harness explores
// exhaustively.
TEST(SeqLock, StampOverflowKeepsParityDiscipline) {
  constexpr uint64_t kBoundary = ~uint64_t{1};  // 2^64 - 2, even
  SeqLock lock(kBoundary);
  char src[8] = "new";
  char dst[8] = {};
  EXPECT_EQ(lock.sequence(), kBoundary);
  lock.WriteBegin();
  EXPECT_EQ(lock.sequence(), ~uint64_t{0});  // 2^64 - 1: odd, write in flight
  EXPECT_TRUE(lock.WriteInProgress());
  EXPECT_FALSE(lock.TryReadCopyAtomic(dst, src, sizeof(src)));
  lock.WriteEnd();
  EXPECT_EQ(lock.sequence(), 0u);  // wrapped to the next even value
  EXPECT_FALSE(lock.WriteInProgress());
  EXPECT_TRUE(lock.TryReadCopyAtomic(dst, src, sizeof(src)));
}

TEST(SeqLock, ValidationRejectsSnapshotSpanningOverflow) {
  SeqLock lock(~uint64_t{1});
  const uint64_t begin_seq = lock.ReadBegin();
  lock.WriteBegin();
  lock.WriteEnd();  // sequence wrapped 2^64-2 -> 0
  EXPECT_FALSE(lock.ReadValidate(begin_seq)) << "a write across the wrap went unnoticed";
  EXPECT_TRUE(lock.ReadValidate(0));
}

TEST(SeqLock, WriteAtomicAcrossOverflowStaysConsistent) {
  SeqLock lock(~uint64_t{1});
  unsigned char shared[32] = {};
  unsigned char image[32];
  std::memset(image, 0x5a, sizeof(image));
  lock.WriteAtomic(shared, image, sizeof(shared));
  unsigned char snapshot[32] = {};
  EXPECT_TRUE(lock.TryReadCopyAtomic(snapshot, shared, sizeof(shared)));
  EXPECT_EQ(std::memcmp(snapshot, image, sizeof(image)), 0);
  EXPECT_EQ(lock.sequence(), 0u);
}

TEST(SeqLock, ConcurrentReadersNeverSeeTornData) {
  // Writer repeatedly writes a buffer where all bytes carry the same value;
  // readers must never observe a mix. WriteAtomic / ReadCopyAtomic move the
  // bytes with the guarded bulk copy, the same protocol the shmem transport
  // runs.
  SeqLock lock;
  constexpr size_t kLen = 256;
  std::vector<unsigned char> shared(kLen, 0);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    std::vector<unsigned char> image(kLen);
    unsigned char v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      std::memset(image.data(), v, kLen);
      lock.WriteAtomic(shared.data(), image.data(), kLen);
    }
  });

  std::thread reader([&] {
    std::vector<unsigned char> snapshot(kLen);
    for (int i = 0; i < 20000; ++i) {
      lock.ReadCopyAtomic(snapshot.data(), shared.data(), kLen);
      for (size_t j = 1; j < kLen; ++j) {
        if (snapshot[j] != snapshot[0]) {
          torn.fetch_add(1);
          break;
        }
      }
    }
    stop.store(true);
  });

  reader.join();
  writer.join();
  EXPECT_EQ(torn.load(), 0);
}

// Stress: several readers race one writer; every accepted TryReadCopyAtomic
// snapshot must be internally consistent (value byte + complemented check
// bytes), and rejected reads must stay in the minority so progress is real.
TEST(SeqLock, StressManyReadersOneWriter) {
  SeqLock lock;
  constexpr size_t kLen = 128;
  constexpr int kReaders = 3;
  constexpr int kAttempts = 50000;
  std::vector<unsigned char> shared(kLen, 0);
  {
    // Publish an initial consistent image (pattern: even bytes v, odd ~v).
    std::vector<unsigned char> image(kLen);
    for (size_t j = 0; j < kLen; ++j) {
      image[j] = (j % 2 == 0) ? 0 : static_cast<unsigned char>(~0);
    }
    lock.WriteAtomic(shared.data(), image.data(), kLen);
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> accepted{0};

  std::thread writer([&] {
    std::vector<unsigned char> image(kLen);
    unsigned char v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      for (size_t j = 0; j < kLen; ++j) {
        image[j] = (j % 2 == 0) ? v : static_cast<unsigned char>(~v);
      }
      lock.WriteAtomic(shared.data(), image.data(), kLen);
      std::this_thread::yield();  // leave readers a stable window
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<unsigned char> snapshot(kLen);
      int64_t mine_accepted = 0;
      for (int i = 0; i < kAttempts; ++i) {
        if (!lock.TryReadCopyAtomic(snapshot.data(), shared.data(), kLen)) {
          continue;  // write in flight: the defined, counted failure mode
        }
        ++mine_accepted;
        const unsigned char v = snapshot[0];
        for (size_t j = 0; j < kLen; ++j) {
          const unsigned char want = (j % 2 == 0) ? v : static_cast<unsigned char>(~v);
          if (snapshot[j] != want) {
            torn.fetch_add(1);
            break;
          }
        }
      }
      accepted.fetch_add(mine_accepted);
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  stop.store(true);
  writer.join();

  EXPECT_EQ(torn.load(), 0) << "an accepted snapshot was torn";
  EXPECT_GT(accepted.load(), 0) << "readers never accepted a snapshot";
}

}  // namespace
}  // namespace malt
