// Plain-text serialization of problem instances (chain + platform), so
// experiments are shareable and the command-line tool can pipe them.
//
// Format (line oriented, '#' comments allowed):
//   prts-instance v1
//   tasks <n>
//   <work> <out_size>          # n lines
//   platform <p> <bandwidth> <link_failure_rate> <max_replication>
//   <speed> <failure_rate>     # p lines
//
// Task lines may alternatively be written as 'task <id> <work>
// <out_size>' with arbitrary distinct integer ids; the chain order is
// the ascending id order, so stage labels carry no meaning beyond their
// relative order (all-labeled or all-plain, never mixed). The service
// layer's canonicalization (src/service/canonical.hpp) relies on this:
// relabeling stages produces a different text but the same instance.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// A problem instance: the application and the platform.
struct Instance {
  TaskChain chain;
  Platform platform;
};

/// Writes the instance in the v1 text format.
void write_instance(std::ostream& out, const Instance& instance);

/// Serializes to a string (convenience over write_instance).
std::string instance_to_text(const Instance& instance);

/// Shortest decimal string that round-trips the double exactly
/// ("1", "0.25", "1e-08", "inf"); -0 is normalized to 0. Unlike stream
/// output this is locale- and precision-independent, so two values
/// produce the same bytes iff they are the same double — the property
/// the service layer's content hashing needs.
std::string canonical_number(double value);

/// Room canonical_number output needs ("-2.2250738585072014e-308" is
/// 24 chars; the margin keeps callers' size bounds simple).
inline constexpr std::size_t kCanonicalNumberMaxChars = 32;

/// canonical_number written straight into `out`, which must have room
/// for kCanonicalNumberMaxChars chars; returns one past the last char.
char* write_canonical_number(char* out, double value) noexcept;

/// Inverse of canonical_number (from_chars round-trips to_chars
/// exactly; "inf"/"-inf" accepted). False on trailing garbage or
/// malformed input; `value` is untouched on failure.
bool parse_canonical_number(std::string_view text, double& value);

/// How many of `claimed` one-line records the unread rest of `in` can
/// still hold (each takes at least a character and a newline); 0 when
/// the stream cannot tell. Decoders reserve this, never the claimed
/// count, so a count in hostile bytes allocates no more than the bytes.
std::size_t records_that_fit(std::istream& in, std::size_t claimed);

/// records_that_fit over the unread rest of a text.
std::size_t records_that_fit(std::string_view unread,
                             std::size_t claimed) noexcept;

/// The v1 text format with canonical_number formatting and no
/// information loss: the byte-level canonical form of an instance
/// (read_instance parses it back bit-exactly). Processor *order* is
/// preserved; isomorphism-safe normalization is layered on top by
/// src/service/canonical.hpp. Written with to_chars into a 4 KB stack
/// buffer (a heap buffer only beyond it): callers hash or stream the
/// bytes, and no string is built.
class CanonicalInstanceText {
 public:
  explicit CanonicalInstanceText(const Instance& instance);
  CanonicalInstanceText(const CanonicalInstanceText&) = delete;
  CanonicalInstanceText& operator=(const CanonicalInstanceText&) = delete;

  std::string_view view() const noexcept { return {begin_, size_}; }

 private:
  char stack_[4096];
  std::unique_ptr<char[]> heap_;
  const char* begin_ = nullptr;
  std::size_t size_ = 0;
};

/// Result of parsing: either an instance or a human-readable error.
struct ParseResult {
  std::optional<Instance> instance;
  std::string error;

  explicit operator bool() const noexcept { return instance.has_value(); }
};

/// Parses the v1 text format in place (fields converted with
/// from_chars, no copy and no stream); never throws — malformed input
/// yields an error message naming the offending line. Fields read as
/// `std::istream >>` reads them in the classic locale, and anything
/// after the last processor line is ignored.
ParseResult instance_from_text(std::string_view text);

/// Reads the stream to its end and parses it (instance_from_text).
ParseResult read_instance(std::istream& in);

}  // namespace prts
