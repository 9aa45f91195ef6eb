#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "topology/perm_base.hpp"
#include "topology/registry.hpp"
#include "util/bitvec.hpp"
#include "util/mixed_radix.hpp"
#include "util/perm.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mmdiag {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Mix64, OrderSensitive) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(1, 2, 3), mix64(3, 2, 1));
}

TEST(BitVec, SetGetReset) {
  BitVec b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.get(0));
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(63));
  b.reset(64);
  EXPECT_FALSE(b.get(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitVec, CountMasksTailBits) {
  BitVec b(65, true);
  EXPECT_EQ(b.count(), 65u);
}

TEST(BitVec, AssignAndClearAll) {
  BitVec b(10);
  b.assign(3, true);
  b.assign(3, false);
  b.assign(7, true);
  EXPECT_EQ(b.count(), 1u);
  b.clear_all();
  EXPECT_EQ(b.count(), 0u);
}

// Regressions for the shift-by-width edge cases in extract(): len == 64
// (mask shift), word-aligned starts (off == 0 guards the second shift),
// and straddles that pull bits from two words.
TEST(BitVec, ExtractFullWordAtStartZero) {
  BitVec b(128);
  for (std::uint64_t i = 0; i < 64; i += 3) b.set(i);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (b.get(i)) expect |= std::uint64_t{1} << i;
  }
  EXPECT_EQ(b.extract(0, 64), expect);
}

TEST(BitVec, ExtractStraddleAtStart63) {
  BitVec b(192);
  b.set(63);
  b.set(64);
  b.set(126);
  // start 63, len 64: bit 0 from word 0's top bit, bits 1..63 from word 1.
  const std::uint64_t got = b.extract(63, 64);
  EXPECT_EQ(got & 1u, 1u);                          // bit 63 -> slot 0
  EXPECT_EQ((got >> 1) & 1u, 1u);                   // bit 64 -> slot 1
  EXPECT_EQ((got >> 63) & 1u, 1u);                  // bit 126 -> slot 63
  EXPECT_EQ(got, (std::uint64_t{1} << 63) | 0b11u);
}

TEST(BitVec, ExtractWordAlignedStart64) {
  BitVec b(192);
  b.set(64);
  b.set(127);
  // start 64 is word-aligned: off == 0 must not touch word 2.
  b.set(128);
  EXPECT_EQ(b.extract(64, 64), (std::uint64_t{1} << 63) | 1u);
}

TEST(BitVec, ExtractLastWordOfExactMultiple) {
  // start + len == size() with size a word multiple: the w + 1 load must
  // not run off the end of words_.
  BitVec b(128);
  b.set(127);
  EXPECT_EQ(b.extract(64, 64), std::uint64_t{1} << 63);
  EXPECT_EQ(b.extract(127, 1), 1u);
}

TEST(BitVec, ExtractMatchesGetOnRandomStraddles) {
  Rng rng(0xE17);
  BitVec b(400);
  for (std::uint64_t i = 0; i < 400; ++i) {
    if (rng.below(2) == 1) b.set(i);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const unsigned len = 1 + static_cast<unsigned>(rng.below(64));
    const std::uint64_t start = rng.below(400 - len + 1);
    const std::uint64_t got = b.extract(start, len);
    for (unsigned i = 0; i < len; ++i) {
      ASSERT_EQ((got >> i) & 1u, b.get(start + i) ? 1u : 0u)
          << "start=" << start << " len=" << len << " i=" << i;
    }
    if (len < 64) {
      ASSERT_EQ(got >> len, 0u) << "stray high bits past len=" << len;
    }
  }
}

TEST(Transpose64, MatchesNaiveOnRandomMatrices) {
  Rng rng(0x7A5);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t a[64], orig[64];
    for (auto& w : a) w = rng();
    for (int r = 0; r < 64; ++r) orig[r] = a[r];
    transpose64(a);
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        ASSERT_EQ((a[r] >> c) & 1u, (orig[c] >> r) & 1u)
            << "r=" << r << " c=" << c;
      }
    }
  }
}

TEST(Transpose64, Involution) {
  Rng rng(0x7A6);
  std::uint64_t a[64], orig[64];
  for (auto& w : a) w = rng();
  for (int r = 0; r < 64; ++r) orig[r] = a[r];
  transpose64(a);
  transpose64(a);
  for (int r = 0; r < 64; ++r) EXPECT_EQ(a[r], orig[r]);
}

TEST(DirtyBitset, InsertContainsClear) {
  DirtyBitset s(130);  // three words, the last one partial
  EXPECT_GE(s.capacity(), 130u);
  for (const Node v : {Node{3}, Node{64}, Node{129}}) {
    EXPECT_TRUE(s.insert(v));
    EXPECT_FALSE(s.insert(v));
    EXPECT_TRUE(s.contains(v));
  }
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(65));
  s.clear();
  for (const Node v : {Node{3}, Node{64}, Node{129}}) {
    EXPECT_FALSE(s.contains(v));
  }
  EXPECT_TRUE(s.insert(3));
}

TEST(DirtyBitset, ReuseAcrossManyClears) {
  DirtyBitset s(200);
  for (Node round = 0; round < 1000; ++round) {
    const Node v = round % 200;
    EXPECT_FALSE(s.contains(v));
    EXPECT_TRUE(s.insert(v));
    EXPECT_TRUE(s.contains(v));
    s.clear();
  }
  for (Node v = 0; v < 200; ++v) EXPECT_FALSE(s.contains(v));
}

TEST(Factorial, KnownValues) {
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(1), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(12), 479001600u);
}

TEST(FallingFactorial, KnownValues) {
  EXPECT_EQ(falling_factorial(7, 3), 7u * 6 * 5);
  EXPECT_EQ(falling_factorial(5, 0), 1u);
  EXPECT_EQ(falling_factorial(5, 5), 120u);
  EXPECT_THROW((void)falling_factorial(3, 4), std::invalid_argument);
  EXPECT_THROW((void)falling_factorial(30, 30), std::overflow_error);
}

TEST(PermCodec, RoundTripFullPermutations) {
  PermCodec codec(5, 5);
  EXPECT_EQ(codec.count(), 120u);
  std::set<std::vector<std::uint8_t>> seen;
  std::uint8_t a[8];
  for (std::uint64_t r = 0; r < codec.count(); ++r) {
    codec.unrank(r, a);
    seen.insert(std::vector<std::uint8_t>(a, a + 5));
    EXPECT_EQ(codec.rank(a), r);
  }
  EXPECT_EQ(seen.size(), 120u);  // bijective
}

TEST(PermCodec, RoundTripArrangements) {
  PermCodec codec(7, 3);
  EXPECT_EQ(codec.count(), 7u * 6 * 5);
  std::uint8_t a[8];
  for (std::uint64_t r = 0; r < codec.count(); ++r) {
    codec.unrank(r, a);
    // symbols distinct, in range
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(a[i], 1);
      EXPECT_LE(a[i], 7);
      for (int j = i + 1; j < 3; ++j) EXPECT_NE(a[i], a[j]);
    }
    EXPECT_EQ(codec.rank(a), r);
  }
}

TEST(PermCodec, RankZeroIsIdentityPrefix) {
  PermCodec codec(6, 4);
  std::uint8_t a[8];
  codec.unrank(0, a);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 2);
  EXPECT_EQ(a[2], 3);
  EXPECT_EQ(a[3], 4);
}

// rank() inverts unrank() on every node of the permutation families, for
// k == n and for k < n.
TEST(PermCodec, RankInvertsUnrankOnEveryPermutationFamilyNode) {
  for (const char* spec :
       {"star 7", "pancake 7", "nk_star 7 3", "arrangement 7 3"}) {
    SCOPED_TRACE(spec);
    const auto topo = make_topology_from_spec(spec);
    const PermCodec& codec = dynamic_cast<const PermTopology&>(*topo).codec();
    std::uint8_t a[64];
    std::size_t mismatches = 0;
    for (std::uint64_t r = 0; r < codec.count(); ++r) {
      codec.unrank(r, a);
      mismatches += codec.rank(a) != r;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << codec.count() << " ranks";
  }
}

// The odometer visits ranks in order: after r steps from rank 0 the cursor
// holds what seek(r) decodes, unused tail included.
TEST(PermCodec, NextStepsToWhatSeekDecodes) {
  for (const auto& [n, k] : {std::pair<unsigned, unsigned>{6, 6}, {7, 3},
                             {6, 1}, {8, 5}}) {
    SCOPED_TRACE(std::to_string(n) + "," + std::to_string(k));
    const PermCodec codec(n, k);
    PermCodec::Cursor walked, sought;
    codec.seek(0, walked);
    for (std::uint64_t r = 0; r < codec.count(); ++r, codec.next(walked)) {
      codec.seek(r, sought);
      ASSERT_EQ(walked.rank, r);
      ASSERT_TRUE(std::equal(walked.symbols, walked.symbols + n,
                             sought.symbols))
          << r;
      ASSERT_TRUE(std::equal(walked.digits, walked.digits + k,
                             sought.digits))
          << r;
    }
  }
}

// The incremental ranks equal rank() of the moved arrangement for every
// prefix swap, prefix reversal and substitution of every node.
TEST(PermCodec, MoveRanksEqualFullRanks) {
  for (const auto& [n, k] : {std::pair<unsigned, unsigned>{7, 7}, {7, 3},
                             {8, 5}}) {
    SCOPED_TRACE(std::to_string(n) + "," + std::to_string(k));
    const PermCodec codec(n, k);
    PermCodec::Cursor node;
    codec.seek(0, node);
    std::size_t mismatches = 0;
    for (std::uint64_t r = 0; r < codec.count(); ++r, codec.next(node)) {
      std::uint8_t b[64];
      for (unsigned i = 1; i < k; ++i) {
        std::copy(node.symbols, node.symbols + k, b);
        std::swap(b[0], b[i]);
        mismatches += codec.rank_prefix_move(node, b, i) != codec.rank(b);
        std::copy(node.symbols, node.symbols + k, b);
        std::reverse(b, b + i + 1);
        mismatches += codec.rank_prefix_move(node, b, i) != codec.rank(b);
      }
      for (unsigned i = 0; i < k; ++i) {
        for (unsigned t = k; t < n; ++t) {
          std::copy(node.symbols, node.symbols + k, b);
          b[i] = node.symbols[t];
          mismatches +=
              codec.rank_substitution(node, i, node.symbols[t]) !=
              codec.rank(b);
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(PermCodec, RejectsBadParams) {
  EXPECT_THROW((void)PermCodec(3, 0), std::invalid_argument);
  EXPECT_THROW((void)PermCodec(3, 4), std::invalid_argument);
}

TEST(TupleCodec, RoundTrip) {
  TupleCodec codec(3, 4);
  EXPECT_EQ(codec.count, 64u);
  std::uint8_t d[8];
  for (std::uint64_t id = 0; id < codec.count; ++id) {
    codec.unrank(id, d);
    for (int i = 0; i < 3; ++i) EXPECT_LT(d[i], 4);
    EXPECT_EQ(codec.rank(d), id);
  }
}

TEST(TupleCodec, WithDigit) {
  TupleCodec codec(3, 5);
  const std::uint64_t id = codec.rank(std::array<std::uint8_t, 3>{2, 3, 4}.data());
  std::uint8_t d[3];
  codec.unrank(codec.with_digit(id, 1, 0), d);
  EXPECT_EQ(d[0], 2);
  EXPECT_EQ(d[1], 0);
  EXPECT_EQ(d[2], 4);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"n", "time"});
  t.add_row({"7", "1.5"});
  t.add_row({"12", "2.25"});
  std::ostringstream text, csv;
  t.print(text);
  t.print_csv(csv);
  EXPECT_NE(text.str().find("| 12 |"), std::string::npos);
  EXPECT_EQ(csv.str(), "n,time\n7,1.5\n12,2.25\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW((void)t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, NumFormat) {
  EXPECT_EQ(Table::num(std::uint64_t{12345}), "12345");
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
}

}  // namespace
}  // namespace mmdiag
