#pragma once
// Zero-run-length encoding for checkpoint deltas.
//
// The increments shipped between checkpoints are XORs of a page against its
// previous contents — mostly zero except where the guest actually wrote
// (Plank's "compressed differences"). A simple zero-run/literal-run format
// captures nearly all of that redundancy with trivial encode/decode cost.
//
// Wire format: a sequence of records
//   varint zero_len | varint literal_len | literal_len raw bytes
// until the decoded output reaches the expected size.

#include <cstddef>
#include <span>
#include <vector>

namespace vdc::checkpoint {

/// Encode `data`. Output never exceeds input by more than a few varints
/// per literal run, and collapses zero runs to ~1-5 bytes.
std::vector<std::byte> rle_encode(std::span<const std::byte> data);

/// Exact size rle_encode(data) would produce, without allocating. Lets the
/// wire planner price compression (and the full-exchange path report
/// compressed sizes) with a single scan and zero copies.
std::size_t rle_encoded_size(std::span<const std::byte> data);

/// Encode `data` into `out` only if the encoding fits in `limit` bytes:
/// returns true with `out` == rle_encode(data) (same bytes, same
/// capacity) when rle_encoded_size(data) <= limit, and false — as soon as
/// the output would outgrow `limit`, leaving `out` unspecified — otherwise.
/// One scan prices and encodes a record.
bool rle_encode_within(std::span<const std::byte> data, std::size_t limit,
                       std::vector<std::byte>& out);

/// Length of `data` through its last nonzero byte (0 if all zero).
std::size_t trim_length(std::span<const std::byte> data);

/// Decode an rle_encode() buffer; `expected_size` is the original length.
/// Throws vdc::Error on malformed input.
std::vector<std::byte> rle_decode(std::span<const std::byte> encoded,
                                  std::size_t expected_size);

}  // namespace vdc::checkpoint
