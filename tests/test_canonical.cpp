// Canonicalization invariants the solve service's cache keys rest on:
// serialize -> canonicalize round trips, hash and key stability, hash
// equality for stage-relabeled / processor-permuted isomorphic
// instances, and a canonical-form memo that answers exactly like a
// fresh canonicalize.
#include "service/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "eval/evaluation.hpp"
#include "model/generator.hpp"
#include "model/serialize.hpp"

namespace prts::service {
namespace {

/// The canonical byte form of `instance`, as a string.
std::string text_of(const Instance& instance) {
  return std::string(CanonicalInstanceText(instance).view());
}

Instance small_het_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 0.0}};
  std::vector<Processor> procs{{3.0, 1e-8}, {1.0, 2e-8}, {2.0, 1e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

TEST(CanonicalNumber, ShortestRoundTripForms) {
  EXPECT_EQ(canonical_number(1.0), "1");
  EXPECT_EQ(canonical_number(0.25), "0.25");
  EXPECT_EQ(canonical_number(-0.0), "0");
  EXPECT_EQ(canonical_number(1e-8), "1e-08");
  EXPECT_EQ(canonical_number(std::numeric_limits<double>::infinity()),
            "inf");
}

TEST(CanonicalHashing, DistinguishesContentAndLength) {
  EXPECT_NE(fingerprint("a"), fingerprint("b"));
  EXPECT_NE(fingerprint("ab"), fingerprint("a"));
  EXPECT_EQ(fingerprint("ab"), fingerprint("ab"));
}

TEST(Canonicalize, SortsProcessorsAndRecordsInversePermutations) {
  const Instance instance = small_het_instance();
  const CanonicalInstance canonical = canonicalize(instance);

  const Platform& sorted = canonical.instance.platform;
  ASSERT_EQ(sorted.processor_count(), 3u);
  // Sorted by (speed, failure rate): speeds 1, 2, 3.
  EXPECT_EQ(sorted.speed(0), 1.0);
  EXPECT_EQ(sorted.speed(1), 2.0);
  EXPECT_EQ(sorted.speed(2), 3.0);

  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(canonical.to_canonical[canonical.to_original[c]], c);
    const Processor& original =
        instance.platform.processor(canonical.to_original[c]);
    EXPECT_EQ(original.speed, sorted.speed(c));
    EXPECT_EQ(original.failure_rate, sorted.failure_rate(c));
  }
}

TEST(Canonicalize, TextRoundTripsAndIsAFixedPoint) {
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  // The canonical text parses back to an instance whose canonical form
  // is byte-identical (canonicalization is idempotent).
  const std::string text = text_of(canonical.instance);
  EXPECT_EQ(canonical.instance_hash, fingerprint(text));
  ParseResult parsed = instance_from_text(text);
  ASSERT_TRUE(parsed) << parsed.error;
  const CanonicalInstance again = canonicalize(*parsed.instance);
  EXPECT_EQ(text_of(again.instance), text);
  EXPECT_EQ(again.instance_hash, canonical.instance_hash);
}

TEST(Canonicalize, HashIsDeterministicWithinARun) {
  const Instance instance = small_het_instance();
  EXPECT_EQ(canonicalize(instance).instance_hash,
            canonicalize(instance).instance_hash);
}

TEST(Canonicalize, GoldenHashPinsCrossRunStability) {
  // Pinned output of the fixed 128-bit fingerprint for one concrete
  // instance: fails if the hash function or the canonical text format
  // changes, which would silently invalidate warm-start cache files.
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  EXPECT_EQ(to_hex(canonical.instance_hash),
            "8ac2c71a6aae4058b362b3703a32503d");
}

TEST(Canonicalize, ProcessorPermutedInstancesCollide) {
  const Instance instance = small_het_instance();
  // Every permutation of the processor list canonicalizes identically.
  std::vector<std::size_t> perm{0, 1, 2};
  const CanonicalHash reference = canonicalize(instance).instance_hash;
  do {
    std::vector<Processor> procs;
    for (const std::size_t u : perm) {
      procs.push_back(instance.platform.processor(u));
    }
    const Instance permuted{
        instance.chain,
        Platform(std::move(procs), instance.platform.bandwidth(),
                 instance.platform.link_failure_rate(),
                 instance.platform.max_replication())};
    const CanonicalInstance canonical = canonicalize(permuted);
    EXPECT_EQ(canonical.instance_hash, reference);
    EXPECT_EQ(text_of(canonical.instance),
              text_of(canonicalize(instance).instance));
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Canonicalize, StageRelabeledInstancesCollide) {
  // The same chain written plain, labeled 0..n-1, and labeled with
  // arbitrary scrambled ids: one canonical hash.
  const std::string plain =
      "prts-instance v1\ntasks 3\n10 2\n4 1\n20 0\n"
      "platform 2 1 1e-05 2\n1 1e-08\n1 1e-08\n";
  const std::string relabeled =
      "prts-instance v1\ntasks 3\n"
      "task 700 20 0\ntask 13 4 1\ntask 5 10 2\n"
      "platform 2 1 1e-05 2\n1 1e-08\n1 1e-08\n";
  ParseResult a = instance_from_text(plain);
  ParseResult b = instance_from_text(relabeled);
  ASSERT_TRUE(a) << a.error;
  ASSERT_TRUE(b) << b.error;
  EXPECT_EQ(canonicalize(*a.instance).instance_hash,
            canonicalize(*b.instance).instance_hash);
}

TEST(Canonicalize, DifferentInstancesDoNotCollide) {
  const Instance instance = small_het_instance();
  Instance changed = instance;
  std::vector<Task> tasks(instance.chain.tasks().begin(),
                          instance.chain.tasks().end());
  tasks[1].work += 1.0;
  changed.chain = TaskChain(std::move(tasks));
  EXPECT_NE(canonicalize(changed).instance_hash,
            canonicalize(instance).instance_hash);
}

TEST(RequestKeys, SolverAndBoundsSeparateRequests) {
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  const solver::Bounds loose;
  solver::Bounds tight;
  tight.period_bound = 10.0;

  EXPECT_EQ(request_key(canonical, "exact", loose),
            request_key(canonical, "exact", loose));
  EXPECT_NE(request_key(canonical, "exact", loose),
            request_key(canonical, "heur-p", loose));
  EXPECT_NE(request_key(canonical, "exact", loose),
            request_key(canonical, "exact", tight));

  // The batch key folds bounds away but keeps the solver.
  EXPECT_EQ(batch_key(canonical, "exact"), batch_key(canonical, "exact"));
  EXPECT_NE(batch_key(canonical, "exact"), batch_key(canonical, "heur-p"));
}

TEST(RequestKeys, GoldenKeyPinsCrossRunStability) {
  // Pinned request and batch keys: the streamed key suffixes must hash
  // exactly like fingerprint(text + suffix) always has, at infinite
  // bounds (the default) and at finite ones.
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  const solver::Bounds infinite;
  solver::Bounds finite;
  finite.period_bound = 25.5;
  finite.latency_bound = 90.0;
  EXPECT_EQ(to_hex(request_key(canonical, "exact", infinite)),
            "cfaaf031fcb4f221dfefd02c7291276a");
  EXPECT_EQ(to_hex(request_key(canonical, "exact", finite)),
            "38c2d95794dfda0d46f437a7ef6a493c");
  EXPECT_EQ(to_hex(request_key(canonical, "heur-p", finite)),
            "3a2718786693c67b35d5f0addf55fc82");
  EXPECT_EQ(to_hex(batch_key(canonical, "exact")),
            "2caa44f862bbcbf3aea226434cade2fb");
  EXPECT_EQ(to_hex(batch_key(canonical, "heur-p")),
            "955fdad3d9729cc1b68fcd468bffea72");
}

TEST(RequestKeys, TraceLabelIsSolverColonKeyAtAnyNameLength) {
  const CanonicalHash key = fingerprint("trace label");
  EXPECT_EQ(trace_label("heur-p", key).view(), "heur-p:" + to_hex(key));
  for (const std::size_t length : {TraceLabel::kMaxInlineSolver,
                                   TraceLabel::kMaxInlineSolver + 1,
                                   std::size_t{200}}) {
    const std::string solver(length, 's');
    const TraceLabel label = trace_label(solver, key);
    EXPECT_EQ(label.view(), solver + ":" + to_hex(key)) << length;
    EXPECT_EQ(label.heap.empty(), length <= TraceLabel::kMaxInlineSolver);
  }
}

TEST(RequestKeys, StreamedSuffixEqualsHashingTheConcatenation) {
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  const std::string text = text_of(canonical.instance);
  solver::Bounds bounds;
  bounds.period_bound = 1e-300;
  bounds.latency_bound = -0.0;  // canonical_number writes it as "0"
  EXPECT_EQ(request_key(canonical, "portfolio", bounds),
            fingerprint(text + "solver portfolio\nbounds " +
                        canonical_number(bounds.period_bound) + " " +
                        canonical_number(bounds.latency_bound) + "\n"));
  EXPECT_EQ(batch_key(canonical, "portfolio"),
            fingerprint(text + "solver portfolio\n"));

  FingerprintChains chains;
  chains.update("split ");
  chains.update("");
  chains.update("anywhere");
  EXPECT_EQ(chains.finish(), fingerprint("split anywhere"));
}

// ------------------------------------------------ canonical-form memo

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Field-by-field, bit-exact equality of two canonical forms.
void expect_same_form(const CanonicalInstance& got,
                      const CanonicalInstance& fresh) {
  EXPECT_EQ(got.instance_hash, fresh.instance_hash);
  EXPECT_EQ(got.text_chains.lo, fresh.text_chains.lo);
  EXPECT_EQ(got.text_chains.hi, fresh.text_chains.hi);
  EXPECT_EQ(got.text_chains.length, fresh.text_chains.length);
  EXPECT_EQ(got.to_original, fresh.to_original);
  EXPECT_EQ(got.to_canonical, fresh.to_canonical);
  const TaskChain& chain = got.instance.chain;
  ASSERT_EQ(chain.size(), fresh.instance.chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(bits(chain.work(i)), bits(fresh.instance.chain.work(i)));
    EXPECT_EQ(bits(chain.out_size(i)), bits(fresh.instance.chain.out_size(i)));
  }
  const Platform& platform = got.instance.platform;
  const Platform& expected = fresh.instance.platform;
  ASSERT_EQ(platform.processor_count(), expected.processor_count());
  EXPECT_EQ(bits(platform.bandwidth()), bits(expected.bandwidth()));
  EXPECT_EQ(bits(platform.link_failure_rate()),
            bits(expected.link_failure_rate()));
  EXPECT_EQ(platform.max_replication(), expected.max_replication());
  for (std::size_t c = 0; c < platform.processor_count(); ++c) {
    EXPECT_EQ(bits(platform.speed(c)), bits(expected.speed(c)));
    EXPECT_EQ(bits(platform.failure_rate(c)), bits(expected.failure_rate(c)));
  }
}

/// `base` with its processors listed in `order`.
Instance with_processor_order(const Instance& base,
                              const std::vector<std::size_t>& order) {
  std::vector<Processor> procs;
  for (const std::size_t u : order) procs.push_back(base.platform.processor(u));
  return Instance{base.chain,
                  Platform(std::move(procs), base.platform.bandwidth(),
                           base.platform.link_failure_rate(),
                           base.platform.max_replication())};
}

/// `count` distinct Section 8.2 instances, each followed by a
/// processor-shuffled copy of itself.
std::vector<Instance> memo_requests(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> requests;
  for (std::size_t i = 0; i < count; ++i) {
    Instance base{paper::chain(rng), paper::het_platform(rng)};
    std::vector<std::size_t> order(base.platform.processor_count());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    Instance shuffled = with_processor_order(base, order);
    requests.push_back(std::move(base));
    requests.push_back(std::move(shuffled));
  }
  return requests;
}

TEST(CanonicalMemo, HitsAndMissesEqualAFreshCanonicalize) {
  CanonicalMemo memo;
  const std::vector<Instance> requests = memo_requests(16, 11);
  for (int round = 0; round < 2; ++round) {
    for (const Instance& request : requests) {
      expect_same_form(*memo.canonicalize(request), canonicalize(request));
    }
  }
  // A repeat is served from the memo: the very same form comes back.
  EXPECT_EQ(memo.canonicalize(requests[0]).get(),
            memo.canonicalize(requests[0]).get());
}

TEST(CanonicalMemo, PermutedCopiesKeepTheirOwnLabels) {
  // Isomorphic requests share the canonical text and instance but each
  // gets its own permutation, whatever the memo held before.
  CanonicalMemo memo;
  const Instance base = small_het_instance();
  std::vector<std::size_t> order{0, 1, 2};
  do {
    const Instance permuted = with_processor_order(base, order);
    const auto form = memo.canonicalize(permuted);
    expect_same_form(*form, canonicalize(permuted));
    EXPECT_EQ(form->instance_hash, canonicalize(base).instance_hash);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(CanonicalMemo, BitDifferentTwinsNeverShareAnEntry) {
  // -0.0 and 0.0 print alike, so the two canonical texts (and keys) are
  // equal, but the solver sees the instance's own doubles: the memo
  // must hand each request the form made from its own bits.
  std::vector<Task> tasks{{10.0, 0.0}, {4.0, 1.0}};
  const Instance positive{
      TaskChain(tasks),
      Platform({{1.0, 0.0}, {2.0, 1e-8}}, 1.0, 0.0, 2)};
  tasks[0].out_size = -0.0;
  const Instance negative{
      TaskChain(tasks),
      Platform({{1.0, -0.0}, {2.0, 1e-8}}, 1.0, -0.0, 2)};

  CanonicalMemo memo;
  for (int round = 0; round < 2; ++round) {
    const auto pos = memo.canonicalize(positive);
    const auto neg = memo.canonicalize(negative);
    EXPECT_NE(pos.get(), neg.get());
    EXPECT_EQ(pos->instance_hash, neg->instance_hash);
    expect_same_form(*pos, canonicalize(positive));
    expect_same_form(*neg, canonicalize(negative));
    EXPECT_FALSE(std::signbit(pos->instance.platform.failure_rate(0)));
    EXPECT_TRUE(std::signbit(neg->instance.platform.failure_rate(0)));
    EXPECT_TRUE(std::signbit(neg->instance.chain.out_size(0)));
    EXPECT_TRUE(std::signbit(neg->instance.platform.link_failure_rate()));
  }
}

TEST(CanonicalMemo, MoreInstancesThanSlotsStillAnswerExactly) {
  CanonicalMemo memo;
  const std::vector<Instance> requests =
      memo_requests(CanonicalMemo::kCapacity, 23);  // 2x the capacity
  for (int round = 0; round < 2; ++round) {
    for (const Instance& request : requests) {
      expect_same_form(*memo.canonicalize(request), canonicalize(request));
    }
  }
}

TEST(CanonicalMemo, ConcurrentLookupsEqualAFreshCanonicalize) {
  // Four threads over enough instances that some sets overflow: hits,
  // misses and evictions race, and every answer must still be exact.
  CanonicalMemo memo;
  const std::vector<Instance> requests =
      memo_requests(CanonicalMemo::kCapacity / 2 + 16, 31);
  std::vector<CanonicalInstance> fresh;
  for (const Instance& request : requests) {
    fresh.push_back(canonicalize(request));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t n = 0; n < 2 * requests.size(); ++n) {
        const std::size_t i = (n * (2 * t + 1) + t) % requests.size();
        const auto form = memo.canonicalize(requests[i]);
        if (form->to_original != fresh[i].to_original ||
            form->to_canonical != fresh[i].to_canonical ||
            form->instance_hash != fresh[i].instance_hash ||
            form->text_chains.lo != fresh[i].text_chains.lo ||
            form->text_chains.hi != fresh[i].text_chains.hi) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_form(*memo.canonicalize(requests[i]), fresh[i]);
  }
}

TEST(LabelTranslation, MapsCanonicalSolutionsBackToRequestLabels) {
  const Instance instance = small_het_instance();
  const CanonicalInstance canonical = canonicalize(instance);

  // A mapping in canonical indices: interval 0 -> fastest two procs.
  Mapping canonical_mapping(IntervalPartition::single(3),
                            {{1, 2}});
  const MappingMetrics metrics =
      evaluate(canonical.instance.chain, canonical.instance.platform,
               canonical_mapping);
  const solver::Solution translated = to_original_labels(
      solver::Solution{canonical_mapping, metrics}, canonical);

  EXPECT_EQ(translated.mapping.validate(instance.platform), std::nullopt);
  EXPECT_EQ(translated.metrics, metrics);
  // The translated replicas are the original indices of canonical 1, 2.
  std::vector<std::size_t> expected{canonical.to_original[1],
                                    canonical.to_original[2]};
  std::sort(expected.begin(), expected.end());
  const auto procs = translated.mapping.processors(0);
  ASSERT_EQ(procs.size(), 2u);
  EXPECT_EQ(procs[0], expected[0]);
  EXPECT_EQ(procs[1], expected[1]);
}

}  // namespace
}  // namespace prts::service
