#include "net/frame.hpp"

#include <cstring>

#include "net/socket.hpp"

namespace prts::net {
namespace {

constexpr char kMagic[4] = {'P', 'R', 'T', 'F'};

void put_u32_be(char* out, std::uint32_t value) noexcept {
  out[0] = static_cast<char>((value >> 24) & 0xff);
  out[1] = static_cast<char>((value >> 16) & 0xff);
  out[2] = static_cast<char>((value >> 8) & 0xff);
  out[3] = static_cast<char>(value & 0xff);
}

std::uint32_t get_u32_be(const unsigned char* in) noexcept {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) |
         static_cast<std::uint32_t>(in[3]);
}

std::uint16_t get_u16_be(const unsigned char* in) noexcept {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(in[0]) << 8) |
                                    static_cast<std::uint16_t>(in[1]));
}

/// The verdicts are judged on this prefix (magic, version, type, id high
/// bits, length), before the id's low 32 bits or the payload are read.
constexpr std::size_t kCheckedHeaderBytes = 12;

std::uint64_t request_id_of(const unsigned char* header) noexcept {
  return (static_cast<std::uint64_t>(get_u16_be(header + 6)) << 32) |
         static_cast<std::uint64_t>(get_u32_be(header + 12));
}

/// Validates the checked header prefix; kFrame here means "header
/// well-formed" (the header still owes its 4 low id bytes).
DecodeStatus check_header(const unsigned char* header,
                          std::size_t max_payload,
                          std::uint32_t& length) noexcept {
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return DecodeStatus::kBadMagic;
  }
  if (header[4] != kProtocolVersion2) {
    return DecodeStatus::kBadVersion;
  }
  length = get_u32_be(header + 8);
  if (length > max_payload) return DecodeStatus::kOversized;
  return DecodeStatus::kFrame;
}

/// recv_exact mapped onto read_frame's verdicts: a short read inside a
/// frame is kTruncated unless the receive timeout cut it.
FrameReadStatus recv_frame_bytes(Socket& socket, void* data,
                                 std::size_t size) noexcept {
  switch (socket.recv_exact(data, size)) {
    case Socket::RecvStatus::kOk:
      return FrameReadStatus::kOk;
    case Socket::RecvStatus::kTimeout:
      return FrameReadStatus::kTimeout;
    default:
      return FrameReadStatus::kTruncated;
  }
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  const std::uint64_t id = frame.request_id & kMaxRequestId;
  std::string bytes;
  bytes.resize(kFrameHeaderBytes + frame.payload.size());
  std::memcpy(bytes.data(), kMagic, sizeof(kMagic));
  bytes[4] = static_cast<char>(frame.version);
  bytes[5] = static_cast<char>(frame.type);
  bytes[6] = static_cast<char>((id >> 40) & 0xff);
  bytes[7] = static_cast<char>((id >> 32) & 0xff);
  put_u32_be(bytes.data() + 8,
             static_cast<std::uint32_t>(frame.payload.size()));
  put_u32_be(bytes.data() + 12, static_cast<std::uint32_t>(id & 0xffffffffu));
  std::memcpy(bytes.data() + kFrameHeaderBytes, frame.payload.data(),
              frame.payload.size());
  return bytes;
}

DecodeResult decode_frame(std::string_view buffer, std::size_t max_payload) {
  DecodeResult result;
  if (buffer.size() < kCheckedHeaderBytes) return result;  // kNeedMore

  const auto* header =
      reinterpret_cast<const unsigned char*>(buffer.data());
  std::uint32_t length = 0;
  const DecodeStatus verdict = check_header(header, max_payload, length);
  if (verdict != DecodeStatus::kFrame) {
    result.status = verdict;
    return result;
  }
  if (buffer.size() < kFrameHeaderBytes + length) return result;

  result.status = DecodeStatus::kFrame;
  result.frame.version = header[4];
  result.frame.type = static_cast<FrameType>(header[5]);
  result.frame.request_id = request_id_of(header);
  result.frame.payload.assign(buffer.data() + kFrameHeaderBytes, length);
  result.consumed = kFrameHeaderBytes + length;
  return result;
}

void FrameDecoder::feed(std::string_view bytes) {
  // Drop what next() consumed before growing the buffer: once per feed,
  // not once per frame, so a chunk of many small frames is moved once.
  buffer_.erase(0, head_);
  head_ = 0;
  buffer_.append(bytes.data(), bytes.size());
}

DecodeResult FrameDecoder::next() {
  if (poisoned_) {
    DecodeResult result;
    result.status = *poisoned_;
    return result;
  }
  DecodeResult result =
      decode_frame(std::string_view(buffer_).substr(head_), max_payload_);
  if (result.status == DecodeStatus::kFrame) {
    head_ += result.consumed;
    result.consumed = 0;  // already dropped; nothing left for the caller
  } else if (result.status != DecodeStatus::kNeedMore) {
    poisoned_ = result.status;
  }
  return result;
}

FrameReadStatus read_frame(Socket& socket, Frame& frame,
                           std::size_t max_payload) {
  unsigned char header[kFrameHeaderBytes];
  // The first byte separates "clean EOF between frames" from "peer died
  // mid-frame" — the robustness tests distinguish the two. A receive
  // timeout anywhere is its own verdict: the connection may be fine,
  // the peer is just slow.
  std::size_t got = 0;
  switch (socket.recv_some_status(header, 1, got)) {
    case Socket::RecvStatus::kOk:
      break;
    case Socket::RecvStatus::kTimeout:
      return FrameReadStatus::kTimeout;
    default:
      return FrameReadStatus::kClosed;
  }
  FrameReadStatus status =
      recv_frame_bytes(socket, header + 1, kCheckedHeaderBytes - 1);
  if (status != FrameReadStatus::kOk) return status;

  std::uint32_t length = 0;
  switch (check_header(header, max_payload, length)) {
    case DecodeStatus::kBadMagic:
      return FrameReadStatus::kBadMagic;
    case DecodeStatus::kBadVersion:
      return FrameReadStatus::kBadVersion;
    case DecodeStatus::kOversized:
      return FrameReadStatus::kOversized;
    default:
      break;
  }

  status = recv_frame_bytes(socket, header + kCheckedHeaderBytes,
                            kFrameHeaderBytes - kCheckedHeaderBytes);
  if (status != FrameReadStatus::kOk) return status;
  frame.version = header[4];
  frame.type = static_cast<FrameType>(header[5]);
  frame.request_id = request_id_of(header);
  frame.payload.resize(length);
  return recv_frame_bytes(socket, frame.payload.data(), length);
}

bool write_frame(Socket& socket, const Frame& frame) {
  const std::string bytes = encode_frame(frame);
  return socket.send_all(bytes.data(), bytes.size());
}

}  // namespace prts::net
