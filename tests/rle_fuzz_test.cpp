// Differential fuzz for the delta compression layer: rle_encode /
// rle_encoded_size / rle_encode_within / rle_decode must agree with each
// other on arbitrary buffers, and encode_record must always pick the
// cheaper of RLE and raw-prefix (trim) while staying exactly invertible.
// The production scanner works a 64-bit word at a time; the original
// byte-at-a-time encoder is kept here (reference_rle_encode,
// reference_encode_record) and every production entry point must match it
// byte for byte. The default seed budget is small; the nightly job widens
// it with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "checkpoint/delta.hpp"
#include "checkpoint/rle.hpp"
#include "checkpoint/wire.hpp"
#include "common/assert.hpp"

namespace vdc::checkpoint {
namespace {

// ---------------------------------------------------------------------------
// Reference encoder: the original byte-wise run scanner and record choice.

void ref_put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

template <typename Emit>
void reference_scan_runs(std::span<const std::byte> data, Emit&& emit) {
  std::size_t i = 0;
  while (i < data.size()) {
    // Count the zero run.
    std::size_t zeros = 0;
    while (i + zeros < data.size() && data[i + zeros] == std::byte{0})
      ++zeros;
    // Count the literal run that follows. A literal run ends at a zero run
    // long enough (>= 4) to be worth a record boundary.
    std::size_t lit_start = i + zeros;
    std::size_t lit_len = 0;
    std::size_t scan = lit_start;
    while (scan < data.size()) {
      if (data[scan] == std::byte{0}) {
        std::size_t z = 0;
        while (scan + z < data.size() && data[scan + z] == std::byte{0}) ++z;
        if (z >= 4 || scan + z == data.size()) break;
        scan += z;
        lit_len += z;
      } else {
        ++scan;
        ++lit_len;
      }
    }
    emit(zeros, lit_start, lit_len);
    i = lit_start + lit_len;
  }
}

std::vector<std::byte> reference_rle_encode(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  reference_scan_runs(data, [&](std::size_t zeros, std::size_t lit_start,
                                std::size_t lit_len) {
    ref_put_varint(out, zeros);
    ref_put_varint(out, lit_len);
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(lit_start),
               data.begin() + static_cast<std::ptrdiff_t>(lit_start + lit_len));
  });
  return out;
}

EncodedRecord reference_encode_record(std::span<const std::byte> x) {
  EncodedRecord rec;
  std::size_t trim = x.size();
  while (trim > 0 && x[trim - 1] == std::byte{0}) --trim;
  rec.trim_len = static_cast<std::uint32_t>(trim);
  std::vector<std::byte> rle = reference_rle_encode(x);
  if (rle.size() <= trim) {
    rec.bytes = std::move(rle);
    rec.raw = false;
  } else {
    rec.bytes.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(trim));
    rec.raw = true;
  }
  return rec;
}

// Every production entry point against the reference, for one buffer.
void expect_matches_reference(const std::vector<std::byte>& x) {
  const auto want = reference_rle_encode(x);
  const auto got = rle_encode(x);
  ASSERT_EQ(got, want) << "rle_encode diverged, len=" << x.size();
  ASSERT_EQ(rle_encoded_size(x), want.size()) << "len=" << x.size();

  // Bounded encode: false exactly when the encoding outgrows the limit;
  // when true, the output (bytes and capacity) is rle_encode's.
  std::vector<std::byte> out(7, std::byte{0x33});  // stale contents
  const std::size_t n = want.size();
  for (std::size_t limit : {std::size_t{0}, n > 0 ? n - 1 : 0, n, n + 1,
                            x.size(), std::size_t{1} << 20}) {
    const bool fits = rle_encode_within(x, limit, out);
    ASSERT_EQ(fits, n <= limit) << "limit=" << limit << " len=" << x.size();
    if (fits) {
      ASSERT_EQ(out, want) << "limit=" << limit;
      std::vector<std::byte> fresh;
      ASSERT_TRUE(rle_encode_within(x, limit, fresh));
      ASSERT_EQ(fresh.capacity(), got.capacity());
    }
  }

  const auto ref = reference_encode_record(x);
  const auto rec = encode_record(x);
  ASSERT_EQ(rec.trim_len, ref.trim_len) << "len=" << x.size();
  ASSERT_EQ(trim_length(x), ref.trim_len) << "len=" << x.size();
  ASSERT_EQ(rec.raw, ref.raw) << "len=" << x.size();
  ASSERT_EQ(rec.bytes, ref.bytes) << "len=" << x.size();
}

std::vector<std::byte> random_bytes(std::mt19937& rng, std::size_t len,
                                    double zero_fraction) {
  std::bernoulli_distribution zero(zero_fraction);
  std::uniform_int_distribution<int> byte_dist(1, 255);
  std::vector<std::byte> out(len);
  for (auto& b : out)
    b = zero(rng) ? std::byte{0} : static_cast<std::byte>(byte_dist(rng));
  return out;
}

int fuzz_seed_count() {
  if (const char* env = std::getenv("VDC_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

// Buffers that look like real checkpoint XOR pages: long zero runs broken
// by short literal bursts, with density and length driven by the seed.
std::vector<std::byte> random_xor_page(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> len_dist(0, 5000);
  std::uniform_int_distribution<int> mode_dist(0, 3);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const std::size_t len = len_dist(rng);
  std::vector<std::byte> out(len, std::byte{0});
  const int mode = mode_dist(rng);
  if (mode == 0) return out;  // all zeros
  if (mode == 1) {            // dense garbage
    for (auto& b : out) b = static_cast<std::byte>(byte_dist(rng));
    return out;
  }
  // Sparse bursts (the common case for dirty-page XORs).
  std::uniform_int_distribution<std::size_t> burst_dist(1, 64);
  std::size_t pos = 0;
  while (pos < len) {
    std::uniform_int_distribution<std::size_t> gap_dist(0, len / 4 + 1);
    pos += gap_dist(rng);
    if (pos >= len) break;
    std::size_t burst = std::min(burst_dist(rng), len - pos);
    for (std::size_t i = 0; i < burst; ++i)
      out[pos + i] = static_cast<std::byte>(byte_dist(rng) | 1);
    pos += burst;
  }
  return out;
}

void check_rle(const std::vector<std::byte>& data) {
  const auto encoded = rle_encode(data);
  EXPECT_EQ(encoded.size(), rle_encoded_size(data))
      << "size predictor disagrees with the encoder, len=" << data.size();
  const auto decoded = rle_decode(encoded, data.size());
  EXPECT_EQ(decoded, data) << "round trip failed, len=" << data.size();
}

TEST(RleFuzz, RoundTripRandomBuffers) {
  const int seeds = fuzz_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0xA5EDu + static_cast<unsigned>(seed));
    for (int i = 0; i < 64; ++i) check_rle(random_xor_page(rng));
  }
}

TEST(RleFuzz, AdversarialPatterns) {
  // Run lengths straddling every varint width boundary, in both the zero
  // and the literal position, plus degenerate shapes.
  const std::size_t boundaries[] = {0,   1,    2,     127,   128,
                                    129, 16383, 16384, 16385};
  for (std::size_t zeros : boundaries) {
    for (std::size_t lits : boundaries) {
      std::vector<std::byte> data(zeros + lits, std::byte{0});
      for (std::size_t i = 0; i < lits; ++i)
        data[zeros + i] = std::byte{0xAB};
      check_rle(data);
      // Literal run first, zero run second (forces a trailing zero run).
      std::vector<std::byte> flipped(lits + zeros, std::byte{0});
      for (std::size_t i = 0; i < lits; ++i) flipped[i] = std::byte{0xCD};
      check_rle(flipped);
    }
  }
  // Alternating bytes defeat both run kinds at once.
  std::vector<std::byte> alt(777);
  for (std::size_t i = 0; i < alt.size(); ++i)
    alt[i] = (i % 2) ? std::byte{0} : std::byte{0x5A};
  check_rle(alt);
}

TEST(RleFuzz, DecodeRejectsMalformed) {
  std::vector<std::byte> data(300, std::byte{0});
  for (std::size_t i = 100; i < 150; ++i) data[i] = std::byte{7};
  const auto encoded = rle_encode(data);
  // Truncation at every prefix either throws or cannot reproduce the
  // buffer (a shorter expected size is a different decode contract).
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    std::span<const std::byte> prefix(encoded.data(), cut);
    EXPECT_THROW(rle_decode(prefix, data.size()), Error) << "cut=" << cut;
  }
  // Declared output shorter than the streams decode to: overrun.
  EXPECT_THROW(rle_decode(encoded, data.size() - 1), Error);
}

TEST(RleFuzz, EncodeRecordPicksMinimumAndInverts) {
  const int seeds = fuzz_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0xD1FFu + static_cast<unsigned>(seed));
    for (int i = 0; i < 64; ++i) {
      const auto x = random_xor_page(rng);
      const auto rec = encode_record(x);

      // trim_len is the raw prefix through the last nonzero byte.
      std::size_t last_nonzero = 0;
      for (std::size_t j = 0; j < x.size(); ++j)
        if (x[j] != std::byte{0}) last_nonzero = j + 1;
      ASSERT_EQ(rec.trim_len, last_nonzero);

      // The chosen encoding is min(RLE, trim), ties to RLE.
      const std::size_t rle_size = rle_encoded_size(x);
      ASSERT_EQ(rec.bytes.size(), std::min<std::size_t>(rle_size, rec.trim_len))
          << "record did not pick the cheaper encoding";
      if (rec.raw) {
        ASSERT_LT(rec.bytes.size(), rle_size) << "raw must win ties";
      }

      // Either mode decodes back to x exactly.
      std::vector<std::byte> decoded;
      if (rec.raw) {
        decoded.assign(x.size(), std::byte{0});
        std::copy(rec.bytes.begin(), rec.bytes.end(), decoded.begin());
      } else {
        decoded = rle_decode(rec.bytes, x.size());
      }
      ASSERT_EQ(decoded, x);

      // The mode flag survives the wire length field.
      ASSERT_LT(rec.bytes.size(), kRawRecordFlag);
    }
  }
}

TEST(RleFuzz, EveryLengthMatchesReference) {
  // Lengths 0-80 cover every alignment of the word loop's tail, and 4096
  // is the page size; densities range from all-zero to all-nonzero.
  std::mt19937 rng(0x5EEDu);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 80; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  for (std::size_t len : lengths)
    for (double zf : {0.0, 0.1, 0.5, 0.7, 0.9, 0.97, 1.0})
      for (int rep = 0; rep < 4; ++rep) {
        expect_matches_reference(random_bytes(rng, len, zf));
        if (HasFatalFailure()) return;
      }
}

TEST(RleFuzz, ShortZeroRunsStraddlingWordsMatchReference) {
  // Zero runs of 1-9 bytes at every offset within and across two 8-byte
  // words, inside a nonzero background: runs under 4 stay in the literal,
  // runs of 4+ split it, and either kind may cross a word boundary.
  std::mt19937 rng(0x21u);
  for (std::size_t len : {std::size_t{40}, std::size_t{4096}})
    for (std::size_t run = 1; run <= 9; ++run)
      for (std::size_t off = 0; off <= 24; ++off) {
        auto x = random_bytes(rng, len, 0.0);
        for (std::size_t i = off; i < off + run; ++i) x[i] = std::byte{0};
        expect_matches_reference(x);
        // A second run just past the first, with one literal byte between.
        if (off + 2 * run + 1 <= len) {
          for (std::size_t i = off + run + 1; i < off + 2 * run + 1; ++i)
            x[i] = std::byte{0};
          expect_matches_reference(x);
        }
        if (HasFatalFailure()) return;
      }
}

TEST(RleFuzz, ShortTrailingZeroRunMatchesReference) {
  // A trailing zero run of 1-3 bytes ends the literal (it reaches the end
  // of the buffer) even though it is shorter than 4.
  std::mt19937 rng(0x7A11u);
  for (std::size_t len = 1; len <= 40; ++len)
    for (std::size_t tail = 1; tail <= 3 && tail <= len; ++tail) {
      auto x = random_bytes(rng, len, 0.2);
      for (std::size_t i = len - tail; i < len; ++i) x[i] = std::byte{0};
      expect_matches_reference(x);
      if (HasFatalFailure()) return;
    }
}

TEST(RleFuzz, RleTrimTieGoesToRle) {
  // {0,0,lit...}: RLE is 2 header bytes + literals, trim is 2 + literals.
  // {0,0,0,0,lit...,0}: RLE adds a 2-byte trailing record; trim has 4
  // leading zeros. Both tie exactly, and ties must pick RLE.
  for (std::size_t lits = 1; lits <= 100; ++lits) {
    std::vector<std::byte> a(2 + lits, std::byte{0x41});
    a[0] = a[1] = std::byte{0};
    std::vector<std::byte> b(4 + lits + 1, std::byte{0x42});
    b[0] = b[1] = b[2] = b[3] = b.back() = std::byte{0};
    for (const auto& x : {a, b}) {
      const auto rec = encode_record(x);
      ASSERT_EQ(rle_encoded_size(x), rec.trim_len) << "not a tie";
      EXPECT_FALSE(rec.raw) << "tie must go to RLE, lits=" << lits;
      expect_matches_reference(x);
    }
  }
  // And any ties the random sweep stumbles on.
  std::mt19937 rng(0x71E5u);
  int ties = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto x = random_bytes(rng, 1 + rng() % 24, 0.5);
    const auto rec = encode_record(x);
    if (rle_encoded_size(x) != rec.trim_len) continue;
    ++ties;
    EXPECT_FALSE(rec.raw);
    expect_matches_reference(x);
  }
  EXPECT_GT(ties, 0);
}

TEST(RleFuzz, RandomPagesMatchReference) {
  const int seeds = fuzz_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0xBEEFu + static_cast<unsigned>(seed));
    for (int i = 0; i < 64; ++i) {
      expect_matches_reference(random_xor_page(rng));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace vdc::checkpoint
