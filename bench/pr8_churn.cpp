// PR 8 perf snapshot: the hash-partitioned DHT under churn.
//
// Two measurements, both on the LogGP cost model (xc40, P=4):
//
//  (a) probe-cost contract. Tables are grown to 1, 4, and 26 shards, fully
//      compacted, and then hammered with multi-lookups: bucket-head probe
//      rounds per lookup must be exactly 1 at every shard count (the PR 3
//      table paid up to n probes on an n-shard table). The pre-compaction
//      probe cost at 26 shards is reported alongside to show what the
//      migration pass buys.
//
//  (b) churn stream. A sustained create/delete/lookup stream (the
//      src/workloads/churn.hpp driver) with an incremental compaction slice
//      per round: freed entry slots must be recycled by later allocations
//      (reclaim fraction -> 1 as the stream runs) instead of stranding, and
//      every lookup must return the key's live value.
//
// GDI_SOAK=1 turns this into the CI churn-soak lane: ~8x the stream length
// plus hard assertions -- probe rounds per lookup stay flat as shards grow,
// compaction reclaims >= 90% of freed capacity, zero wrong lookups.
//
// Emits a paper-style table plus a JSON blob (committed as BENCH_pr8.json);
// tools/check_bench.py tracks the smoke-mode metrics in CI.
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"
#include "workloads/churn.hpp"

namespace {

struct ProbePoint {
  std::uint64_t shards = 0;
  double ppl = 0;            ///< probe rounds per lookup, compacted
  double precompact_ppl = 0; ///< same measurement before the migration pass
};

ProbePoint probe_contract(int P, const gdi::rma::NetParams& net,
                          std::uint64_t target_shards) {
  using namespace gdi;
  ProbePoint out;
  rma::Runtime rt(P, net);
  rt.run([&](rma::Rank& self) {
    dht::DhtConfig cfg;
    cfg.buckets_per_rank = 64;
    cfg.entries_per_rank = 64;
    cfg.salt = 31;
    cfg.max_shards = 32;
    auto t = dht::DistributedHashTable::create(self, cfg);
    // (target-1) full shards plus a partial one: growth happens exactly at
    // heap exhaustion, so this lands the table on `target_shards` shards.
    const std::uint64_t keys_per_rank = (target_shards - 1) * cfg.entries_per_rank + 32;
    const auto base = (static_cast<std::uint64_t>(self.id()) + 1) << 40;
    for (std::uint64_t i = 0; i < keys_per_rank; ++i)
      if (!t->insert(self, base + i, base + i + 1)) {
        std::fprintf(stderr, "pr8_churn: insert of key %llu failed (rank %d)\n",
                     static_cast<unsigned long long>(base + i), self.id());
        std::abort();
      }
    self.barrier();
    // Erase the even keys: migration needs free slots to copy into (the pass
    // deliberately refuses to grow the directory), and a half-empty table is
    // the churn steady state compaction exists for anyway.
    for (std::uint64_t i = 0; i < keys_per_rank; i += 2)
      if (!t->erase(self, base + i)) {
        std::fprintf(stderr, "pr8_churn: erase of key %llu failed (rank %d)\n",
                     static_cast<unsigned long long>(base + i), self.id());
        std::abort();
      }
    self.barrier();

    const std::uint64_t survivors = keys_per_rank / 2;
    auto measure = [&](std::uint64_t lookups) {
      CounterRng rng(7 + static_cast<std::uint64_t>(self.id()));
      std::vector<std::uint64_t> keys;
      keys.reserve(lookups);
      for (std::uint64_t i = 0; i < lookups; ++i)
        keys.push_back(base + 1 + 2 * rng.next_below(survivors));
      const std::uint64_t p0 = self.counters().dht_probe_rounds;
      const auto got = t->lookup_many(self, keys);
      const auto probes = self.counters().dht_probe_rounds - p0;
      for (std::size_t i = 0; i < keys.size(); ++i)
        if (!got[i] || *got[i] != keys[i] + 1) {
          std::fprintf(stderr, "pr8_churn: lookup of key %llu returned %s%llu, want %llu\n",
                       static_cast<unsigned long long>(keys[i]), got[i] ? "" : "nothing ",
                       static_cast<unsigned long long>(got[i] ? *got[i] : 0),
                       static_cast<unsigned long long>(keys[i] + 1));
          std::abort();
        }
      return static_cast<double>(probes) / static_cast<double>(lookups);
    };

    const double pre = measure(256);
    self.barrier();
    if (self.id() == 0) {
      // Run migration passes to completion; a pass pauses on a full heap, so
      // iterate (each migration also frees its source slot).
      for (int i = 0; i < 64; ++i) {
        if (t->clean_shard_count(self) >= t->shard_count(self)) break;
        (void)t->compact(self);
      }
      if (const auto clean = t->clean_shard_count(self), shards = t->shard_count(self);
          clean < shards) {
        std::fprintf(stderr, "pr8_churn: compaction left clean_shard_count %u < shard_count %u\n",
                     clean, shards);
        std::abort();
      }
    }
    self.barrier();
    (void)t->clean_shard_count(self);  // pick up the advanced clean count
    self.barrier();
    const double post = measure(256);
    const double pre_max = self.allreduce_max(pre);
    const double post_max = self.allreduce_max(post);
    self.barrier();
    if (self.id() == 0) {
      out.shards = t->shard_count(self);
      out.ppl = post_max;
      out.precompact_ppl = pre_max;
    }
    self.barrier();
  });
  return out;
}

}  // namespace

int main() {
  using namespace gdi;
  using namespace gdi::bench;

  const bool soak = []() {
    const char* s = std::getenv("GDI_SOAK");
    return s != nullptr && s[0] == '1';
  }();

  print_header("PR 8 -- hash-partitioned DHT: probe flatness + churn reclaim",
               soak ? "churn-soak lane (GDI_SOAK=1)" : "paper Sec. 5.7, partitioned");
  const int P = 4;
  const auto net = rma::NetParams::xc40();

  // --- (a) probe-cost contract at 1 / 4 / 26 shards -------------------------
  const ProbePoint p1 = probe_contract(P, net, 1);
  const ProbePoint p4 = probe_contract(P, net, 4);
  const ProbePoint p26 = probe_contract(P, net, 26);
  const double flatness = p26.ppl > 0 ? p1.ppl / p26.ppl : 0.0;

  // --- (b) churn stream with incremental compaction -------------------------
  work::ChurnConfig cc;
  cc.rounds = soak ? 24576 : (smoke_mode() ? 24 : 48);
  cc.inserts_per_round = soak ? 512 : 256;
  cc.erase_fraction = 0.5;
  cc.lookups_per_round = soak ? 512 : 256;
  cc.compact_budget = 128;
  cc.seed = 11;
  double reclaim = 0, churn_ppl = 0, churn_kops = 0;
  std::uint64_t wrong = 0, migrated = 0, churn_shards = 0, churn_clean = 0;
  {
    rma::Runtime rt(P, net);
    rt.run([&](rma::Rank& self) {
      dht::DhtConfig cfg;
      cfg.buckets_per_rank = soak ? 512u : 256u;
      cfg.entries_per_rank = soak ? 512u : 256u;
      cfg.salt = 53;
      cfg.max_shards = 16;
      auto t = dht::DistributedHashTable::create(self, cfg);
      const auto st = work::run_churn(self, *t, cc);
      const auto erases = self.allreduce_sum(st.erases);
      const auto reclaims = self.allreduce_sum(st.reclaimed);
      const auto lookups = self.allreduce_sum(st.lookups);
      const auto probes = self.allreduce_sum(st.probe_rounds);
      const auto bad = self.allreduce_sum(st.wrong);
      const auto mig = self.allreduce_sum(st.migrated);
      const auto ops = self.allreduce_sum(st.inserts + st.erases + st.lookups);
      const double ns = self.allreduce_max(st.sim_ns);
      self.barrier();
      if (self.id() == 0) {
        reclaim = erases ? static_cast<double>(reclaims) / static_cast<double>(erases) : 1.0;
        churn_ppl = lookups ? static_cast<double>(probes) / static_cast<double>(lookups) : 0.0;
        churn_kops = static_cast<double>(ops) / (ns * 1e-6);
        wrong = bad;
        migrated = mig;
        churn_shards = t->shard_count(self);
        churn_clean = t->clean_shard_count(self);
      }
      self.barrier();
    });
  }

  stats::Table table({"measurement", "s=1", "s=4", "s=26"});
  table.add_row({"probes/lookup (compacted)", stats::Table::fmt(p1.ppl, 3),
                 stats::Table::fmt(p4.ppl, 3), stats::Table::fmt(p26.ppl, 3)});
  table.add_row({"probes/lookup (pre-compact)", stats::Table::fmt(p1.precompact_ppl, 3),
                 stats::Table::fmt(p4.precompact_ppl, 3),
                 stats::Table::fmt(p26.precompact_ppl, 3)});
  std::cout << table.to_string() << "\n";
  stats::Table churn({"churn stream", "value"});
  churn.add_row({"reclaim fraction", stats::Table::fmt(reclaim, 3)});
  churn.add_row({"probes/lookup (mid-churn)", stats::Table::fmt(churn_ppl, 3)});
  churn.add_row({"throughput kops/s", stats::Table::fmt(churn_kops, 1)});
  churn.add_row({"entries migrated", std::to_string(migrated)});
  churn.add_row({"shards (clean/published)", std::to_string(churn_clean) + "/" +
                                                 std::to_string(churn_shards)});
  churn.add_row({"wrong lookups", std::to_string(wrong)});
  std::cout << churn.to_string();

  // Correctness is unconditional; the soak lane additionally pins the two
  // scaling properties the partition exists for.
  if (wrong != 0) {
    std::cerr << "FAIL: " << wrong << " lookups returned a missing/wrong value\n";
    return 1;
  }
  if (soak) {
    if (p1.ppl > 1.001 || p4.ppl > 1.001 || p26.ppl > 1.001) {
      std::cerr << "FAIL: compacted probe rounds per lookup not flat: s1="
                << p1.ppl << " s4=" << p4.ppl << " s26=" << p26.ppl << "\n";
      return 1;
    }
    if (reclaim < 0.9) {
      std::cerr << "FAIL: churn reclaimed only " << reclaim * 100
                << "% of freed capacity (need >= 90%)\n";
      return 1;
    }
  }

  Record()
      .str("bench", "pr8_churn")
      .str("description",
           "hash-partitioned DHT: compacted probe flatness at 1/4/26 shards, "
           "churn-stream capacity reclaim")
      .str("net", "xc40")
      .num("ranks", P)
      .flag("soak", soak)
      .num("churn_rounds", cc.rounds)
      .num("ppl_s1", p1.ppl, 3)
      .num("ppl_s4", p4.ppl, 3)
      .num("ppl_s26", p26.ppl, 3)
      .num("precompact_ppl_s26", p26.precompact_ppl, 3)
      .num("probe_flatness", flatness, 3)
      .num("reclaim_frac", reclaim, 3)
      .num("churn_ppl", churn_ppl, 3)
      .num("churn_kops", churn_kops, 1)
      .num("migrated", migrated)
      .num("churn_shards", churn_shards)
      .num("churn_clean", churn_clean)
      .print();
  std::cout << "\nExpected shape: compacted probes/lookup == 1.000 in every\n"
               "column (the PR 3 table scaled linearly in shard count), and the\n"
               "churn stream's reclaim fraction approaches 1 as freed slots are\n"
               "recycled by the cross-shard spill allocator.\n";
  return 0;
}
