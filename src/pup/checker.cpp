#include "pup/checker.h"

#include <cmath>
#include <cstring>
#include <vector>

namespace acr::pup {

namespace {

/// Cursor over one self-describing stream.
class StreamCursor {
 public:
  explicit StreamCursor(std::span<const std::byte> s) : s_(s) {}

  bool done() const { return pos_ == s_.size(); }

  struct Record {
    Tag tag;
    std::uint64_t count;
    std::span<const std::byte> payload;
  };

  Record next(std::size_t elem_size_hint = 0) {
    (void)elem_size_hint;
    if (pos_ + kRecordHeaderBytes > s_.size())
      throw StreamError("malformed stream: truncated record header at offset " +
                        std::to_string(pos_));
    std::uint8_t t = 0;
    std::uint64_t n = 0;
    std::memcpy(&t, s_.data() + pos_, sizeof t);
    std::memcpy(&n, s_.data() + pos_ + sizeof t, sizeof n);
    pos_ += kRecordHeaderBytes;
    Tag tag = static_cast<Tag>(t);
    std::size_t payload = static_cast<std::size_t>(n) * payload_elem_size(tag);
    if (pos_ + payload > s_.size())
      throw StreamError("malformed stream: truncated payload at offset " +
                        std::to_string(pos_));
    Record r{tag, n, s_.subspan(pos_, payload)};
    pos_ += payload;
    return r;
  }

  static std::size_t payload_elem_size(Tag tag) {
    switch (tag) {
      case Tag::Bytes:
      case Tag::I8:
      case Tag::U8:
        return 1;
      case Tag::I16:
      case Tag::U16:
        return 2;
      case Tag::I32:
      case Tag::U32:
      case Tag::F32:
        return 4;
      case Tag::I64:
      case Tag::U64:
      case Tag::F64:
      case Tag::Size:
        return 8;
      case Tag::OptionsPush:
        return sizeof(CompareOptions);
      case Tag::OptionsPop:
        return 0;
    }
    throw StreamError("malformed stream: unknown record tag " +
                      std::to_string(static_cast<int>(tag)));
  }

 private:
  std::span<const std::byte> s_;
  std::size_t pos_ = 0;
};

template <typename F>
bool fp_equal(F a, F b, const CompareOptions& opts) {
  if (a == b) return true;  // also covers +0/-0
  if (std::isnan(a) && std::isnan(b)) return true;
  double diff = std::fabs(static_cast<double>(a) - static_cast<double>(b));
  if (opts.abs_tol > 0.0 && diff <= opts.abs_tol) return true;
  if (opts.rel_tol > 0.0) {
    double scale = std::max(std::fabs(static_cast<double>(a)),
                            std::fabs(static_cast<double>(b)));
    if (diff <= opts.rel_tol * scale) return true;
  }
  return false;
}

template <typename F>
std::size_t compare_fp_payload(std::span<const std::byte> a,
                               std::span<const std::byte> b,
                               const CompareOptions& opts, bool stop_at_first,
                               std::size_t* first_elem) {
  std::size_t n = a.size() / sizeof(F);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    F va, vb;
    std::memcpy(&va, a.data() + i * sizeof(F), sizeof(F));
    std::memcpy(&vb, b.data() + i * sizeof(F), sizeof(F));
    if (!fp_equal(va, vb, opts)) {
      if (mismatches == 0) *first_elem = i;
      ++mismatches;
      if (stop_at_first) return mismatches;
    }
  }
  return mismatches;
}

std::size_t compare_raw_payload(std::span<const std::byte> a,
                                std::span<const std::byte> b,
                                std::size_t elem_size, bool stop_at_first,
                                std::size_t* first_elem) {
  if (std::memcmp(a.data(), b.data(), a.size()) == 0) return 0;
  std::size_t n = a.size() / elem_size;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(a.data() + i * elem_size, b.data() + i * elem_size,
                    elem_size) != 0) {
      if (mismatches == 0) *first_elem = i;
      ++mismatches;
      if (stop_at_first) return mismatches;
    }
  }
  return mismatches;
}

}  // namespace

CompareResult compare_streams(std::span<const std::byte> local,
                              std::span<const std::byte> remote,
                              const CheckerConfig& config) {
  CompareResult res;
  StreamCursor lc(local), rc(remote);
  std::vector<CompareOptions> option_stack{config.defaults};
  std::size_t record_index = 0;

  auto fail_structural = [&](const std::string& why) {
    res.match = false;
    res.mismatched_elements += 1;
    res.first.record_index = record_index;
    res.first.element_index = 0;
    res.first.detail = "structural divergence: " + why;
  };

  while (!lc.done() || !rc.done()) {
    if (lc.done() != rc.done()) {
      fail_structural("streams have different lengths");
      return res;
    }
    StreamCursor::Record a = lc.next();
    StreamCursor::Record b = rc.next();

    if (a.tag == Tag::OptionsPush && b.tag == Tag::OptionsPush) {
      CompareOptions opts;
      std::memcpy(&opts, a.payload.data(), sizeof opts);
      option_stack.push_back(opts);
      ++record_index;
      continue;
    }
    if (a.tag == Tag::OptionsPop && b.tag == Tag::OptionsPop) {
      if (option_stack.size() > 1) option_stack.pop_back();
      ++record_index;
      continue;
    }

    if (a.tag != b.tag) {
      fail_structural(std::string("record tags differ (") + tag_name(a.tag) +
                      " vs " + tag_name(b.tag) + ")");
      return res;
    }
    if (a.count != b.count) {
      fail_structural("record counts differ (" + std::to_string(a.count) +
                      " vs " + std::to_string(b.count) + ") for " +
                      tag_name(a.tag));
      return res;
    }

    const CompareOptions& opts = option_stack.back();
    ++res.records_compared;
    if (!opts.ignore && !a.payload.empty()) {
      res.bytes_compared += a.payload.size();
      std::size_t first_elem = 0;
      std::size_t mism = 0;
      bool fp_with_tol =
          (opts.rel_tol > 0.0 || opts.abs_tol > 0.0) &&
          (a.tag == Tag::F32 || a.tag == Tag::F64);
      if (fp_with_tol && a.tag == Tag::F32) {
        mism = compare_fp_payload<float>(a.payload, b.payload, opts,
                                         config.stop_at_first, &first_elem);
      } else if (fp_with_tol && a.tag == Tag::F64) {
        mism = compare_fp_payload<double>(a.payload, b.payload, opts,
                                          config.stop_at_first, &first_elem);
      } else {
        mism = compare_raw_payload(a.payload, b.payload,
                                   StreamCursor::payload_elem_size(a.tag),
                                   config.stop_at_first, &first_elem);
      }
      if (mism > 0) {
        if (res.match) {
          res.first.record_index = record_index;
          res.first.element_index = first_elem;
          res.first.tag = a.tag;
          res.first.detail = std::string("payload divergence in ") +
                             tag_name(a.tag) + " record " +
                             std::to_string(record_index) + " element " +
                             std::to_string(first_elem);
        }
        res.match = false;
        res.mismatched_elements += mism;
        if (config.stop_at_first) return res;
      }
    }
    ++record_index;
  }
  return res;
}

}  // namespace acr::pup
