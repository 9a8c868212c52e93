#include "checkpoint/rle.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/assert.hpp"

namespace vdc::checkpoint {

namespace {

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t get_varint(std::span<const std::byte> in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw Error("rle: truncated varint");
    const auto b = static_cast<std::uint8_t>(in[pos++]);
    if (shift >= 63 && (b >> 1) != 0) throw Error("rle: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Word-at-a-time scanning maps byte k of a loaded word to bit 8k; other
// byte orders fall through to the byte loops.
constexpr bool kWordScan = std::endian::native == std::endian::little;
constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;

std::uint64_t load_word(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t zero_bytes(std::uint64_t v) {
  return (v - kLowBits) & ~v & kHighBits;
}

// First nonzero byte in [i, n), or n. Skips zero words whole, four at a
// time while it can.
std::size_t next_nonzero(const std::byte* d, std::size_t i, std::size_t n) {
  if constexpr (kWordScan) {
    for (; i + 32 <= n; i += 32)
      if ((load_word(d + i) | load_word(d + i + 8) | load_word(d + i + 16) |
           load_word(d + i + 24)) != 0)
        break;
    for (; i + 8 <= n; i += 8)
      if (const std::uint64_t v = load_word(d + i); v != 0)
        return i + static_cast<std::size_t>(std::countr_zero(v)) / 8;
  }
  while (i < n && d[i] == std::byte{0}) ++i;
  return i;
}

// First zero byte in [i, n), or n. The has-zero-byte trick flags every
// zero byte of a word; its lowest flag is exact (a borrow can only
// produce false flags above a true zero byte).
std::size_t next_zero(const std::byte* d, std::size_t i, std::size_t n) {
  if constexpr (kWordScan) {
    for (; i + 32 <= n; i += 32)
      if ((zero_bytes(load_word(d + i)) | zero_bytes(load_word(d + i + 8)) |
           zero_bytes(load_word(d + i + 16)) |
           zero_bytes(load_word(d + i + 24))) != 0)
        break;
    for (; i + 8 <= n; i += 8)
      if (const std::uint64_t z = zero_bytes(load_word(d + i)); z != 0)
        return i + static_cast<std::size_t>(std::countr_zero(z)) / 8;
  }
  while (i < n && d[i] != std::byte{0}) ++i;
  return i;
}

// Shared run scanner: calls emit(zeros, lit_start, lit_len) for each
// zero-run/literal-run record, exactly as rle_encode lays them out, until
// emit returns false. Returns whether the whole buffer was scanned.
//
// Record layout: a zero run, then a literal run that ends at the first
// zero run long enough (>= 4) to be worth a record boundary, or at a zero
// run that reaches the end of the buffer (which becomes a final record of
// zeros alone).
template <typename Emit>
bool scan_runs(std::span<const std::byte> data, Emit&& emit) {
  const std::byte* d = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  std::size_t lit_start = next_nonzero(d, 0, n);
  while (i < n) {
    std::size_t lit_end = n;
    std::size_t next_lit = n;
    for (std::size_t scan = lit_start; scan < n;) {
      const std::size_t z0 = next_zero(d, scan, n);
      if (z0 == n) break;
      const std::size_t z1 = next_nonzero(d, z0, n);
      if (z1 - z0 >= 4 || z1 == n) {
        lit_end = z0;
        next_lit = z1;
        break;
      }
      scan = z1;
    }
    if (!emit(lit_start - i, lit_start, lit_end - lit_start)) return false;
    i = lit_end;
    lit_start = next_lit;
  }
  return true;
}

std::size_t record_size(std::size_t zeros, std::size_t lit_len) {
  return varint_size(zeros) + varint_size(lit_len) + lit_len;
}

void put_record(std::vector<std::byte>& out, std::span<const std::byte> data,
                std::size_t zeros, std::size_t lit_start,
                std::size_t lit_len) {
  put_varint(out, zeros);
  put_varint(out, lit_len);
  out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(lit_start),
             data.begin() + static_cast<std::ptrdiff_t>(lit_start + lit_len));
}

}  // namespace

std::vector<std::byte> rle_encode(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  out.reserve(data.size() / 8 + 16);
  scan_runs(data, [&](std::size_t zeros, std::size_t lit_start,
                      std::size_t lit_len) {
    put_record(out, data, zeros, lit_start, lit_len);
    return true;
  });
  return out;
}

std::size_t rle_encoded_size(std::span<const std::byte> data) {
  std::size_t total = 0;
  scan_runs(data, [&](std::size_t zeros, std::size_t, std::size_t lit_len) {
    total += record_size(zeros, lit_len);
    return true;
  });
  return total;
}

bool rle_encode_within(std::span<const std::byte> data, std::size_t limit,
                       std::vector<std::byte>& out) {
  out.clear();
  out.reserve(data.size() / 8 + 16);
  return scan_runs(data, [&](std::size_t zeros, std::size_t lit_start,
                             std::size_t lit_len) {
    if (out.size() + record_size(zeros, lit_len) > limit) return false;
    put_record(out, data, zeros, lit_start, lit_len);
    return true;
  });
}

std::size_t trim_length(std::span<const std::byte> data) {
  const std::byte* d = data.data();
  std::size_t n = data.size();
  if constexpr (kWordScan) {
    for (; n >= 32; n -= 32)
      if ((load_word(d + n - 32) | load_word(d + n - 24) |
           load_word(d + n - 16) | load_word(d + n - 8)) != 0)
        break;
    for (; n >= 8; n -= 8)
      if (const std::uint64_t v = load_word(d + n - 8); v != 0)
        return n - static_cast<std::size_t>(std::countl_zero(v)) / 8;
  }
  while (n > 0 && d[n - 1] == std::byte{0}) --n;
  return n;
}

std::vector<std::byte> rle_decode(std::span<const std::byte> encoded,
                                  std::size_t expected_size) {
  std::vector<std::byte> out;
  out.reserve(expected_size);
  std::size_t pos = 0;
  while (out.size() < expected_size) {
    if (pos >= encoded.size()) throw Error("rle: truncated stream");
    const std::uint64_t zeros = get_varint(encoded, pos);
    const std::uint64_t lits = get_varint(encoded, pos);
    if (out.size() + zeros + lits > expected_size)
      throw Error("rle: output overrun");
    out.insert(out.end(), zeros, std::byte{0});
    if (pos + lits > encoded.size()) throw Error("rle: truncated literals");
    out.insert(out.end(), encoded.begin() + static_cast<std::ptrdiff_t>(pos),
               encoded.begin() + static_cast<std::ptrdiff_t>(pos + lits));
    pos += lits;
  }
  if (pos != encoded.size()) throw Error("rle: trailing garbage");
  return out;
}

}  // namespace vdc::checkpoint
