#include "service/canonical.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

namespace prts::service {
namespace {

/// SplitMix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void FingerprintChains::update(std::string_view bytes) noexcept {
  // Two independent multiply-xor chains (FNV-1a and an offset variant
  // with a different odd multiplier), each finalized by splitmix64.
  for (const char c : bytes) {
    const auto byte = static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    lo = (lo ^ byte) * 0x100000001b3ULL;      // FNV-1a prime
    hi = (hi ^ byte) * 0xc2b2ae3d27d4eb4fULL; // xxhash64 prime 2
  }
  length += bytes.size();
}

CanonicalHash FingerprintChains::finish() const noexcept {
  // Fold the length in so prefixes of each other cannot collide on both
  // halves, then avalanche.
  return CanonicalHash{mix64(hi ^ (length * 0xff51afd7ed558ccdULL)),
                       mix64(lo ^ length)};
}

CanonicalHash fingerprint(std::string_view bytes) noexcept {
  FingerprintChains chains;
  chains.update(bytes);
  return chains.finish();
}

/// Writes the 32 hex digits of to_hex at `out`.
static void write_hex(const CanonicalHash& hash, char* out) noexcept {
  static const char* digits = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hash.hi >> (4 * i)) & 0xF];
    out[31 - i] = digits[(hash.lo >> (4 * i)) & 0xF];
  }
}

std::string to_hex(const CanonicalHash& hash) {
  std::string text(32, '0');
  write_hex(hash, text.data());
  return text;
}

std::string trace_label(std::string_view solver_name,
                        const CanonicalHash& key) {
  std::string label(solver_name.size() + 33, ':');
  std::copy(solver_name.begin(), solver_name.end(), label.begin());
  write_hex(key, label.data() + solver_name.size() + 1);
  return label;
}

std::optional<CanonicalHash> hash_from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  CanonicalHash hash;
  for (int i = 0; i < 32; ++i) {
    const char c = hex[static_cast<std::size_t>(i)];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    if (i < 16) {
      hash.hi = (hash.hi << 4) | digit;
    } else {
      hash.lo = (hash.lo << 4) | digit;
    }
  }
  return hash;
}

CanonicalInstance canonicalize(const Instance& instance) {
  const Platform& platform = instance.platform;
  const std::size_t p = platform.processor_count();

  // Stable sort on the physical characteristics only: processors with
  // equal (speed, failure rate) are interchangeable, and stability makes
  // the permutation deterministic for a given request.
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Processor& pa = platform.processor(a);
                     const Processor& pb = platform.processor(b);
                     if (pa.speed != pb.speed) return pa.speed < pb.speed;
                     return pa.failure_rate < pb.failure_rate;
                   });

  std::vector<Processor> sorted;
  sorted.reserve(p);
  std::vector<std::size_t> to_canonical(p);
  for (std::size_t c = 0; c < p; ++c) {
    sorted.push_back(platform.processor(order[c]));
    to_canonical[order[c]] = c;
  }

  CanonicalInstance canonical{
      Instance{instance.chain,
               Platform(std::move(sorted), platform.bandwidth(),
                        platform.link_failure_rate(),
                        platform.max_replication())},
      std::move(order),
      std::move(to_canonical),
      {},
      {}};
  const CanonicalInstanceText text(canonical.instance);
  canonical.text_chains.update(text.view());
  canonical.instance_hash = canonical.text_chains.finish();
  return canonical;
}

/// The text chains continued over "solver <name>\n", the suffix both
/// keys start with.
static FingerprintChains solver_chains(const CanonicalInstance& canonical,
                                       std::string_view solver_name) {
  FingerprintChains chains = canonical.text_chains;
  chains.update("solver ");
  chains.update(solver_name);
  chains.update("\n");
  return chains;
}

CanonicalHash request_key(const CanonicalInstance& canonical,
                          const std::string& solver_name,
                          const solver::Bounds& bounds) {
  FingerprintChains chains = solver_chains(canonical, solver_name);
  char suffix[16 + 2 * kCanonicalNumberMaxChars];
  char* out = std::copy_n("bounds ", 7, suffix);
  out = write_canonical_number(out, bounds.period_bound);
  *out++ = ' ';
  out = write_canonical_number(out, bounds.latency_bound);
  *out++ = '\n';
  chains.update(
      std::string_view(suffix, static_cast<std::size_t>(out - suffix)));
  return chains.finish();
}

CanonicalHash batch_key(const CanonicalInstance& canonical,
                        const std::string& solver_name) {
  return solver_chains(canonical, solver_name).finish();
}

namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The memo's slot tag: a hash of the request's exact bit patterns, in
/// the request's own processor order. Never 0 (0 marks an empty slot).
std::uint64_t request_tag(const Instance& instance) noexcept {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  const auto mix = [&h](std::uint64_t word) {
    h = std::rotl((h ^ word) * 0x9e3779b97f4a7c15ULL, 29);
  };
  const auto mix_double = [&mix](double value) {
    mix(std::bit_cast<std::uint64_t>(value));
  };
  mix(instance.chain.size());
  for (const Task& task : instance.chain.tasks()) {
    mix_double(task.work);
    mix_double(task.out_size);
  }
  const Platform& platform = instance.platform;
  mix(platform.processor_count());
  mix_double(platform.bandwidth());
  mix_double(platform.link_failure_rate());
  mix(platform.max_replication());
  for (const Processor& proc : platform.processors()) {
    mix_double(proc.speed);
    mix_double(proc.failure_rate);
  }
  return mix64(h) | 1;
}

/// True iff `request` is bit for bit the instance `form` was made from:
/// the chain field by field, and request processor o against canonical
/// processor to_canonical[o].
bool is_form_of(const Instance& request,
                const CanonicalInstance& form) noexcept {
  const TaskChain& chain = request.chain;
  const TaskChain& stored_chain = form.instance.chain;
  if (chain.size() != stored_chain.size()) return false;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (!same_bits(chain.work(i), stored_chain.work(i)) ||
        !same_bits(chain.out_size(i), stored_chain.out_size(i))) {
      return false;
    }
  }
  const Platform& platform = request.platform;
  const Platform& sorted = form.instance.platform;
  const std::size_t p = platform.processor_count();
  if (p != sorted.processor_count() || p != form.to_canonical.size() ||
      platform.max_replication() != sorted.max_replication() ||
      !same_bits(platform.bandwidth(), sorted.bandwidth()) ||
      !same_bits(platform.link_failure_rate(), sorted.link_failure_rate())) {
    return false;
  }
  for (std::size_t o = 0; o < p; ++o) {
    const std::size_t c = form.to_canonical[o];
    if (!same_bits(platform.speed(o), sorted.speed(c)) ||
        !same_bits(platform.failure_rate(o), sorted.failure_rate(c))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t CanonicalMemo::find_locked(const Set& set, std::uint64_t tag,
                                      const Instance& instance) noexcept {
  for (std::size_t way = 0; way < kWays; ++way) {
    if (set.tags[way] == tag && is_form_of(instance, *set.forms[way])) {
      return way;
    }
  }
  return kWays;
}

std::shared_ptr<const CanonicalInstance> CanonicalMemo::canonicalize(
    const Instance& instance) {
  const std::uint64_t tag = request_tag(instance);
  Set& set = sets_[static_cast<std::size_t>(tag >> 32) % kSets];
  {
    const std::shared_lock lock(set.mutex);
    if (const std::size_t way = find_locked(set, tag, instance); way < kWays) {
      return set.forms[way];
    }
  }

  auto form = std::make_shared<const CanonicalInstance>(
      service::canonicalize(instance));
  std::shared_ptr<const CanonicalInstance> evicted;  // freed after unlocking
  const std::lock_guard lock(set.mutex);
  // A concurrent miss on the same request may have won the race.
  if (const std::size_t way = find_locked(set, tag, instance); way < kWays) {
    return set.forms[way];
  }
  std::size_t way = 0;
  while (way < kWays && set.tags[way] != 0) ++way;
  if (way == kWays) way = set.next_victim++ % kWays;
  evicted = std::move(set.forms[way]);
  set.tags[way] = tag;
  set.forms[way] = form;
  return form;
}

solver::Solution to_original_labels(
    const solver::Solution& canonical_solution,
    const CanonicalInstance& canonical) {
  const Mapping& mapping = canonical_solution.mapping;
  std::vector<std::vector<std::size_t>> procs;
  procs.reserve(mapping.interval_count());
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    std::vector<std::size_t> replicas;
    replicas.reserve(mapping.processors(j).size());
    for (const std::size_t c : mapping.processors(j)) {
      replicas.push_back(canonical.to_original[c]);
    }
    procs.push_back(std::move(replicas));  // Mapping's ctor re-sorts
  }
  return solver::Solution{Mapping(mapping.partition(), std::move(procs)),
                          canonical_solution.metrics};
}

}  // namespace prts::service
