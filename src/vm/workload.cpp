#include "vm/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace vdc::vm {

namespace {

// Each page write mutates a small run of bytes at a random offset: enough
// to change checkpoint content without the cost of rewriting whole pages.
constexpr std::size_t kWriteSpan = 64;

// Costs kWriteSpan draws for the bytes plus one for the offset (two more
// pick the page in HotColdWorkload). The bytes are drawn through a local
// copy of the generator so the stores into `buf` cannot alias its state.
void mutate_page(MemoryImage& image, PageIndex page, Rng& rng) {
  std::byte buf[kWriteSpan];
  Rng local = rng;
  for (auto& b : buf) b = static_cast<std::byte>(local.next() & 0xff);
  const std::size_t span =
      std::min<std::size_t>(kWriteSpan, image.page_size());
  const std::size_t max_off = image.page_size() - span;
  const std::size_t off = max_off ? local.uniform_u64(max_off + 1) : 0;
  rng = local;
  image.write(page, off, {buf, span});
}

// Convert a continuous rate into an integer number of writes for this
// step, carrying the fractional remainder so long-run rates are exact.
std::uint64_t writes_this_step(double rate, SimTime dt, double& carry) {
  VDC_ASSERT(dt >= 0.0);
  const double want = rate * dt + carry;
  const double whole = std::floor(want);
  carry = want - whole;
  return static_cast<std::uint64_t>(whole);
}

}  // namespace

UniformWorkload::UniformWorkload(double writes_per_sec)
    : rate_(writes_per_sec) {
  VDC_REQUIRE(writes_per_sec >= 0.0, "write rate must be non-negative");
}

void UniformWorkload::advance(MemoryImage& image, SimTime dt, Rng& rng) {
  const auto n = writes_this_step(rate_, dt, carry_);
  for (std::uint64_t i = 0; i < n; ++i)
    mutate_page(image, rng.uniform_u64(image.page_count()), rng);
}

HotColdWorkload::HotColdWorkload(double writes_per_sec, double hot_fraction,
                                 double hot_probability)
    : rate_(writes_per_sec),
      hot_fraction_(hot_fraction),
      hot_probability_(hot_probability) {
  VDC_REQUIRE(writes_per_sec >= 0.0, "write rate must be non-negative");
  VDC_REQUIRE(hot_fraction > 0.0 && hot_fraction <= 1.0,
              "hot fraction must be in (0, 1]");
  VDC_REQUIRE(hot_probability >= 0.0 && hot_probability <= 1.0,
              "hot probability must be in [0, 1]");
}

void HotColdWorkload::advance(MemoryImage& image, SimTime dt, Rng& rng) {
  const auto n = writes_this_step(rate_, dt, carry_);
  const auto hot_pages = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(hot_fraction_ * image.page_count())));
  for (std::uint64_t i = 0; i < n; ++i) {
    PageIndex page;
    if (rng.chance(hot_probability_)) {
      page = rng.uniform_u64(hot_pages);  // hot set = first pages
    } else {
      page = rng.uniform_u64(image.page_count());
    }
    mutate_page(image, page, rng);
  }
}

SequentialWorkload::SequentialWorkload(double writes_per_sec)
    : rate_(writes_per_sec) {
  VDC_REQUIRE(writes_per_sec >= 0.0, "write rate must be non-negative");
}

void SequentialWorkload::advance(MemoryImage& image, SimTime dt, Rng& rng) {
  const auto n = writes_this_step(rate_, dt, carry_);
  for (std::uint64_t i = 0; i < n; ++i) {
    mutate_page(image, cursor_, rng);
    cursor_ = (cursor_ + 1) % image.page_count();
  }
}

ZipfWorkload::ZipfWorkload(double writes_per_sec, double exponent)
    : rate_(writes_per_sec), exponent_(exponent) {
  VDC_REQUIRE(writes_per_sec >= 0.0, "write rate must be non-negative");
  VDC_REQUIRE(exponent > 0.0, "Zipf exponent must be positive");
}

vm::PageIndex ZipfWorkload::sample_page(std::size_t pages, Rng& rng) {
  if (cdf_.size() != pages) {
    cdf_.resize(pages);
    double sum = 0.0;
    for (std::size_t r = 0; r < pages; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent_);
      cdf_[r] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<PageIndex>(it - cdf_.begin());
}

void ZipfWorkload::advance(MemoryImage& image, SimTime dt, Rng& rng) {
  const auto n = writes_this_step(rate_, dt, carry_);
  for (std::uint64_t i = 0; i < n; ++i)
    mutate_page(image, sample_page(image.page_count(), rng), rng);
}

PhasedWorkload::PhasedWorkload(double rate_a, double rate_b,
                               SimTime phase_length)
    : rate_a_(rate_a), rate_b_(rate_b), phase_length_(phase_length) {
  VDC_REQUIRE(rate_a >= 0.0 && rate_b >= 0.0,
              "write rates must be non-negative");
  VDC_REQUIRE(phase_length > 0.0, "phase length must be positive");
}

void PhasedWorkload::advance(MemoryImage& image, SimTime dt, Rng& rng) {
  // Walk through phase boundaries, issuing writes at each phase's rate.
  while (dt > 0.0) {
    const SimTime left = phase_length_ - into_phase_;
    const SimTime step = std::min(dt, left);
    const double rate = in_a_ ? rate_a_ : rate_b_;
    const auto n = writes_this_step(rate, step, carry_);
    for (std::uint64_t i = 0; i < n; ++i)
      mutate_page(image, rng.uniform_u64(image.page_count()), rng);
    into_phase_ += step;
    dt -= step;
    if (into_phase_ >= phase_length_ - 1e-12) {
      into_phase_ = 0.0;
      in_a_ = !in_a_;
    }
  }
}

}  // namespace vdc::vm
