// Canonical instance forms and content hashing for the solve service
// (the first layer of src/service/): two requests that describe the
// same tri-criteria problem must collide on one cache key even when
// their representations differ.
//
// Normalizations applied:
//   - value level: every number is rendered by canonical_number()
//     (shortest round-trip decimal), so "1", "1.0" and "1.000" are one
//     byte sequence;
//   - stage labels: the chain is kept in pipeline order with labels
//     erased (the serializer's 'task <id> ...' form already reduces
//     labels to an ordering, see model/serialize.hpp);
//   - processor labels: processors are sorted by (speed, failure rate)
//     with a stable sort, and the permutation is recorded both ways, so
//     processor-permuted isomorphic instances share one canonical form
//     and cached solutions can be translated back into each request's
//     own labels.
//
// The service *solves the canonical instance*, never the original: two
// isomorphic requests therefore receive bit-identical metrics and
// label-translated copies of one mapping, whether they were served cold
// or from the cache.
//
// The 128-bit content hash is computed by a fixed, self-contained
// function (two independent 64-bit mix chains + splitmix finalizers),
// never std::hash, so keys are stable across runs, platforms and
// standard libraries — a requirement for warm-start cache files.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "model/serialize.hpp"
#include "solver/solver.hpp"

namespace prts::service {

/// A 128-bit content hash. Collisions are treated as impossible at
/// service scale (~2^-64 per pair); equality of keys is equality of
/// canonical requests.
struct CanonicalHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  auto operator<=>(const CanonicalHash&) const noexcept = default;
};

/// The fingerprint's two mix chains and byte count before finalization.
/// Hashing is byte-serial, so a prefix's chains can be kept and
/// continued later: chains over `a`, updated with `b`, then finished,
/// equal fingerprint(a + b) bit for bit.
struct FingerprintChains {
  std::uint64_t lo = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis
  std::uint64_t hi = 0x9e3779b97f4a7c15ULL;  ///< golden-ratio basis
  std::uint64_t length = 0;

  void update(std::string_view bytes) noexcept;
  CanonicalHash finish() const noexcept;
};

/// Hashes a byte string with the fixed 128-bit function described above.
CanonicalHash fingerprint(std::string_view bytes) noexcept;

/// 32 lowercase hex digits (hi then lo).
std::string to_hex(const CanonicalHash& hash);

/// A request's trace label, "<solver>:<to_hex(key)>", rendered into a
/// fixed inline buffer; only a solver name longer than kMaxInlineSolver
/// characters falls back to the heap.
struct TraceLabel {
  static constexpr std::size_t kHexChars = 32;
  static constexpr std::size_t kMaxInlineSolver = 31;

  std::array<char, kMaxInlineSolver + 1 + kHexChars> chars{};
  std::size_t size = 0;
  std::string heap;  ///< the over-long fallback; empty otherwise

  std::string_view view() const noexcept {
    return heap.empty() ? std::string_view(chars.data(), size)
                        : std::string_view(heap);
  }
};

/// Renders a request's trace label without allocating (see TraceLabel).
TraceLabel trace_label(std::string_view solver_name, const CanonicalHash& key);

/// Hasher for CanonicalHash-keyed maps: lo is already avalanched by
/// fingerprint(), so it is the bucket index; maps compare full 128-bit
/// keys.
struct CanonicalKeyHasher {
  std::size_t operator()(const CanonicalHash& key) const noexcept {
    return static_cast<std::size_t>(key.lo);
  }
};

/// An instance in canonical form plus the label translation back to the
/// request it came from.
struct CanonicalInstance {
  /// The canonical instance: same chain, processors in canonical order.
  Instance instance;

  /// to_original[c] = index in the *request's* platform of the
  /// processor that became canonical index c.
  std::vector<std::size_t> to_original;

  /// Inverse: to_canonical[o] = canonical index of request processor o.
  std::vector<std::size_t> to_canonical;

  /// fingerprint(text), where text is the canonical byte form
  /// CanonicalInstanceText(instance). The text itself is not kept: it
  /// is hashed straight from its stack buffer.
  CanonicalHash instance_hash;

  /// The unfinalized chains over the text: the request and batch keys
  /// continue them over their short suffix instead of rehashing it.
  FingerprintChains text_chains;
};

/// Canonicalizes an instance. Deterministic: equal instances (after
/// label erasure) produce byte-identical canonical text and equal
/// hashes.
CanonicalInstance canonicalize(const Instance& instance);

/// Cache key of a full request: fingerprint(text + "solver <name>\n"
/// "bounds <period> <latency>\n"), bounds in canonical_number form.
CanonicalHash request_key(const CanonicalInstance& canonical,
                          const std::string& solver_name,
                          const solver::Bounds& bounds);

/// Batching key: fingerprint(text + "solver <name>\n"), bounds excluded
/// — requests sharing it can be answered by one prepared solver session.
CanonicalHash batch_key(const CanonicalInstance& canonical,
                        const std::string& solver_name);

/// A bounded, thread-safe memo of canonical forms, keyed by the exact
/// bit patterns of the *request* instance (labels as sent, -0.0 and 0.0
/// distinct). A bound sweep, or any repeated instance, is canonicalized
/// once. A hit is trusted only after every field of the request matched
/// the stored canonical form through its to_canonical permutation, so a
/// hash collision or a bit-different twin can never reuse another
/// request's form: canonicalize() through the memo returns exactly what
/// the free function returns.
///
/// Layout: kSets sets of kWays slots, each set under its own
/// reader-writer lock, so concurrent hits share it. A per-slot tag (the
/// request hash) filters the ways before any form is compared. A miss
/// canonicalizes outside the lock and replaces an empty or the next
/// round-robin way of its set.
///
/// Size, from lookup traces of the three benchmark workloads: a hot set
/// of 96 request instances (32 instances, each also sent in two
/// processor orders) stays resident at 32 x 8 (at most 7 land in one
/// set), where 16 x 8 hits 98.9% and 32 x 4 95.4%. A bound ladder
/// reuses its instance on the next lookup, so any size hits 39 of 40.
/// A fleet whose instances recur ~10k lookups apart hits 5-10% here,
/// 13-16% at 4x the size and 84% only with every instance kept, so
/// growing the memo buys it almost nothing. Round robin within a set
/// hits within half a point of LRU over the same slots. A slot pins
/// about 1 KB (a 15-task, 10-processor form): a memo stays under
/// 300 KB.
class CanonicalMemo {
 public:
  static constexpr std::size_t kWays = 8;
  static constexpr std::size_t kSets = 32;
  static constexpr std::size_t kCapacity = kWays * kSets;

  /// canonicalize(instance), shared, from the memo when it holds it.
  std::shared_ptr<const CanonicalInstance> canonicalize(
      const Instance& instance);

 private:
  struct alignas(64) Set {
    std::shared_mutex mutex;
    std::array<std::uint64_t, kWays> tags{};  ///< 0 = empty way
    std::array<std::shared_ptr<const CanonicalInstance>, kWays> forms;
    std::size_t next_victim = 0;
  };

  /// The way of `set` holding the form of `instance`, or kWays.
  static std::size_t find_locked(const Set& set, std::uint64_t tag,
                                 const Instance& instance) noexcept;

  std::array<Set, kSets> sets_;
};

/// Translates a solution expressed in canonical processor indices into
/// the request's own labels (replica sets re-sorted ascending; metrics
/// are label-invariant and pass through unchanged).
solver::Solution to_original_labels(const solver::Solution& canonical_solution,
                                    const CanonicalInstance& canonical);

}  // namespace prts::service
