// Seeded checkpoint-image generators. They live in the benchmark so that a
// change to the program cannot change the bytes it is measured on: every
// byte below is a function of (--seed, writer, image index) only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

using Bytes = std::vector<std::uint8_t>;

// xoshiro256** seeded through splitmix64.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) {
    for (std::uint64_t& word : s_) word = SplitMix(seed);
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [lo, hi].
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }

  void Fill(std::uint8_t* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = Next();
      std::memcpy(out + i, &word, 8);
    }
    if (i < n) {
      std::uint64_t word = Next();
      std::memcpy(out + i, &word, n - i);
    }
  }

 private:
  static std::uint64_t SplitMix(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b = 0) {
  return Prng(seed ^ (a * 0xD1B54A32D192ED03ull) ^
              (b * 0x8CB92BA72F3D8DD7ull))
      .Next();
}

// Independent images: every byte of image `image` of writer `writer` is
// fresh random data, so no two images share a chunk, an erasure shard or
// any other piece a store could deduplicate or compress.
class RandomImages {
 public:
  RandomImages(std::uint64_t seed, std::uint64_t writer,
               std::size_t image_bytes)
      : seed_(seed), writer_(writer), buf_(image_bytes) {}

  std::size_t image_bytes() const { return buf_.size(); }

  // Generates image `image` into the writer's buffer and returns it.
  std::span<const std::uint8_t> Image(std::uint64_t image) {
    Fill(image, buf_);
    return buf_;
  }

  // True when `got` is exactly image `image`. Regenerates into `scratch`
  // and leaves the writer's buffer alone, so any thread may call it.
  bool Matches(std::uint64_t image, std::span<const std::uint8_t> got,
               Bytes& scratch) const {
    scratch.resize(buf_.size());
    Fill(image, scratch);
    return got.size() == scratch.size() &&
           std::memcmp(got.data(), scratch.data(), got.size()) == 0;
  }

 private:
  void Fill(std::uint64_t image, Bytes& out) const {
    Prng(MixSeed(seed_, writer_ + 1, image)).Fill(out.data(), out.size());
  }

  std::uint64_t seed_;
  std::uint64_t writer_;
  Bytes buf_;
};

// A chain of BLCR-like successive images of one process: a linear dump of
// its pages with variable-length segment records between them. The numbers
// are those of the repository's calibrated BLCR model
// (src/workload/trace_generators.h: BlcrTraceOptions and
// BlcrOptionsForInterval(5, ...)), which is tuned to the paper's Table 3
// for the 5-minute BLCR interval: CbCH finds most of each image again
// (the paper reports up to 84%), 1 MiB FsCH finds almost nothing, because
// insertions shift everything behind them. Only the numbers are copied; the
// generator is this one, so a change to src/workload cannot change it.
struct BlcrParams {
  static constexpr std::size_t kPage = 4096;
  // BlcrTraceOptions::initial_pages: 32 MiB, the model's scaled-down stand-in
  // for the paper's ~280 MB BLAST BLCR images (Table 2).
  std::size_t pages = 8192;
  double dirty_fraction = 0.08;      // of all pages, per interval
  std::size_t dirty_run_pages = 64;  // runs of 32..96 pages
  double mean_insertions = 0.5;      // fresh pages inserted
  double mean_odd_insertions = 2.0;  // records of 65..2111 bytes inserted
  double deletion_prob = 0.1;        // one page removed
  double zero_page_fraction = 0.05;  // all-zero pages in the first image
};

class ImageChain {
 public:
  ImageChain(std::uint64_t seed, BlcrParams params = {})
      : params_(params), rng_(MixSeed(seed, 0xC4A1)) {
    pages_.reserve(params_.pages);
    for (std::size_t i = 0; i < params_.pages; ++i) {
      const bool zero = Uniform() < params_.zero_page_fraction;
      pages_.push_back({rng_.Next(), zero, !zero});
    }
    Render();
  }

  const Bytes& image() const { return image_; }
  // Fresh random bytes the last step wrote (every non-zero page for the
  // first image). None of them can legitimately deduplicate.
  std::uint64_t changed_bytes() const { return changed_bytes_; }

  void Step() {
    for (Page& page : pages_) page.fresh = false;
    for (Record& record : records_) record.fresh = false;
    // Dirty runs of pages, as BlcrLikeTrace's DirtyRandomPages does.
    std::size_t budget = static_cast<std::size_t>(
        params_.dirty_fraction * static_cast<double>(pages_.size()));
    while (budget > 0) {
      const std::size_t start = Below(pages_.size());
      std::size_t len = params_.dirty_run_pages / 2 +
                        Below(params_.dirty_run_pages + 1);
      len = std::max<std::size_t>(1, std::min(len, budget));
      for (std::size_t i = 0; i < len && start + i < pages_.size(); ++i) {
        pages_[start + i] = {rng_.Next(), false, true};
      }
      budget -= len;
    }
    for (std::size_t n = Count(params_.mean_insertions); n > 0; --n) {
      const std::size_t at = Below(pages_.size() + 1);
      pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(at),
                    Page{rng_.Next(), false, true});
      Shift(at, +1);
    }
    for (std::size_t n = Count(params_.mean_odd_insertions); n > 0; --n) {
      Record record{Below(pages_.size() + 1), Bytes(65 + 2 * Below(1024)),
                    true};
      rng_.Fill(record.data.data(), record.data.size());
      auto pos = std::upper_bound(
          records_.begin(), records_.end(), record.before_page,
          [](std::size_t at, const Record& r) { return at < r.before_page; });
      records_.insert(pos, std::move(record));
    }
    if (Uniform() < params_.deletion_prob) {
      const std::size_t at = Below(pages_.size());
      pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(at));
      Shift(at + 1, -1);
    }
    Render();
  }

 private:
  struct Page {
    std::uint64_t seed;
    bool zero;
    bool fresh;  // written in the last step
  };
  struct Record {
    std::size_t before_page;  // dumped just before this page
    Bytes data;
    bool fresh;
  };

  double Uniform() {
    return static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
  }
  std::size_t Below(std::size_t n) { return rng_.Next() % n; }
  // Event count for a mean, drawn by thinning as BlcrLikeTrace draws it.
  std::size_t Count(double mean) {
    std::size_t count = 0;
    for (double left = mean; left > 0; left -= 1.0) {
      if (Uniform() < std::min(1.0, left)) ++count;
    }
    return count;
  }
  void Shift(std::size_t from, std::ptrdiff_t delta) {
    for (Record& record : records_) {
      if (record.before_page >= from) {
        record.before_page = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(record.before_page) + delta);
      }
    }
  }

  void Render() {
    std::size_t size = pages_.size() * BlcrParams::kPage;
    for (const Record& record : records_) size += record.data.size();
    image_.resize(size);
    changed_bytes_ = 0;
    std::uint8_t* out = image_.data();
    auto put_record = [&](const Record& record) {
      std::memcpy(out, record.data.data(), record.data.size());
      out += record.data.size();
      if (record.fresh) changed_bytes_ += record.data.size();
    };
    std::size_t next = 0;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      for (; next < records_.size() && records_[next].before_page == i; ++next) {
        put_record(records_[next]);
      }
      const Page& page = pages_[i];
      if (page.zero) {
        std::memset(out, 0, BlcrParams::kPage);
      } else {
        Prng(page.seed).Fill(out, BlcrParams::kPage);
      }
      out += BlcrParams::kPage;
      if (page.fresh) changed_bytes_ += BlcrParams::kPage;
    }
    for (; next < records_.size(); ++next) put_record(records_[next]);
  }

  BlcrParams params_;
  Prng rng_;
  std::vector<Page> pages_;
  std::vector<Record> records_;  // sorted by before_page
  Bytes image_;
  std::uint64_t changed_bytes_ = 0;
};

}  // namespace perfbench
