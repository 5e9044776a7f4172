#include "pup/pup.h"

namespace acr::pup {

namespace {

void encode_header(std::uint8_t (&header)[kRecordHeaderBytes], Tag tag,
                   std::size_t count) {
  header[0] = static_cast<std::uint8_t>(tag);
  std::uint64_t n = count;
  std::memcpy(header + 1, &n, sizeof n);
}

}  // namespace

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::Bytes: return "bytes";
    case Tag::I8: return "i8";
    case Tag::U8: return "u8";
    case Tag::I16: return "i16";
    case Tag::U16: return "u16";
    case Tag::I32: return "i32";
    case Tag::U32: return "u32";
    case Tag::I64: return "i64";
    case Tag::U64: return "u64";
    case Tag::F32: return "f32";
    case Tag::F64: return "f64";
    case Tag::Size: return "size";
    case Tag::OptionsPush: return "options-push";
    case Tag::OptionsPop: return "options-pop";
  }
  return "invalid";
}

void Sizer::record(Tag, void*, std::size_t count, std::size_t elem_size) {
  size_ += kRecordHeaderBytes + count * elem_size;
}

void Packer::record(Tag tag, void* data, std::size_t count,
                    std::size_t elem_size) {
  std::size_t payload = count * elem_size;
  std::uint8_t header[kRecordHeaderBytes];
  encode_header(header, tag, count);
  out_->append(header, kRecordHeaderBytes);
  if (payload > 0) out_->append(data, payload);
  if (tee_ != nullptr) {
    tee_->write(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(header), kRecordHeaderBytes));
    if (payload > 0)
      tee_->write(std::span<const std::byte>(
          static_cast<const std::byte*>(data), payload));
  }
}

std::span<std::byte> Packer::place(Tag tag, std::size_t count,
                                   std::size_t elem_size) {
  ACR_REQUIRE(tee_ == nullptr, "place_array() on a teed packer");
  std::uint8_t header[kRecordHeaderBytes];
  encode_header(header, tag, count);
  out_->append(header, kRecordHeaderBytes);
  return out_->extend(count * elem_size);
}

std::span<const std::byte> Unpacker::consume(std::size_t n) {
  if (pos_ + n > in_.size())
    throw StreamError("checkpoint stream truncated (need " +
                      std::to_string(n) + " bytes at offset " +
                      std::to_string(pos_) + ", stream has " +
                      std::to_string(in_.size()) + ")");
  std::span<const std::byte> out = in_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Unpacker::read(void* dst, std::size_t n) {
  std::memcpy(dst, consume(n).data(), n);
}

void Unpacker::read_header(Tag tag, std::size_t count) {
  std::uint8_t t = 0;
  std::uint64_t n = 0;
  read(&t, sizeof t);
  read(&n, sizeof n);
  if (t != static_cast<std::uint8_t>(tag))
    throw StreamError(std::string("record tag mismatch: stream has ") +
                      tag_name(static_cast<Tag>(t)) + ", object expects " +
                      tag_name(tag));
  if (n != count)
    throw StreamError("record count mismatch for " + std::string(tag_name(tag)) +
                      ": stream has " + std::to_string(n) +
                      ", object expects " + std::to_string(count));
}

void Unpacker::record(Tag tag, void* data, std::size_t count,
                      std::size_t elem_size) {
  read_header(tag, count);
  // Options records round-trip their payload too, so the packer/unpacker
  // stay symmetric; they carry comparison metadata, not object state.
  std::size_t payload = count * elem_size;
  if (payload > 0) read(data, payload);
}

std::span<const std::byte> Unpacker::view(Tag tag, std::size_t count,
                                          std::size_t elem_size) {
  read_header(tag, count);
  return consume(count * elem_size);
}

}  // namespace acr::pup
