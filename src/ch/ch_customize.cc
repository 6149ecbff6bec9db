#include "ch/ch_customize.h"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

#include "graph/shortest_path.h"

namespace ecocharge {

namespace {

double Dot(const double len[kChNumClasses], const ChClassWeights& w) {
  return len[0] * w.w[0] + len[1] * w.w[1] + len[2] * w.w[2];
}

bool SameWeights(const ChClassWeights& a, const ChClassWeights& b) {
  return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2];
}

}  // namespace

std::shared_ptr<const ChCustomization> ChCustomizeReference(
    const ChIndex& ch, const ChClassWeights& weights) {
  const size_t n = ch.NumNodes();
  const auto up = ch.up_arcs();
  const auto down = ch.down_arcs();
  const auto up_off = ch.up_offsets();
  const auto down_off = ch.down_offsets();
  auto plane = std::make_shared<ChCustomization>();
  plane->weights = weights;
  plane->via_up.assign(up.size(), kInvalidNode);
  plane->via_down.assign(down.size(), kInvalidNode);
  auto& cw_up = plane->cw_up;
  auto& cw_down = plane->cw_down;
  // Base costs: original arcs priced with the weights (one class is
  // nonzero, so the dot product is exactly length * weight); shortcut arcs
  // start unpriced and receive their cost from a triangle below.
  cw_up.resize(up.size());
  cw_down.resize(down.size());
  for (size_t i = 0; i < up.size(); ++i) {
    cw_up[i] =
        up[i].orig == kChShortcutEdge ? kInfiniteCost : Dot(up[i].len, weights);
  }
  for (size_t i = 0; i < down.size(); ++i) {
    cw_down[i] = down[i].orig == kChShortcutEdge ? kInfiniteCost
                                                 : Dot(down[i].len, weights);
  }
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[ch.rank(v)] = v;
  // When x is processed, every arc incident to x is final (its remaining
  // triangles would have an apex ranked below x, already processed).
  // Relaxing all (a -> x -> b) pairs therefore prices every enclosing arc
  // exactly; iteration order is fixed and improvements are strict, so the
  // via assignment is deterministic. Parallel records collapse to
  // per-neighbor run minima first — min(ca_i + cu_j) separates into
  // min(ca) + min(cu), the same double bit for bit — and only the first
  // record of each target run is relaxed.
  std::vector<std::pair<NodeId, double>> downs;  // (a, min cost a -> x)
  std::vector<std::pair<NodeId, double>> ups;    // (b, min cost x -> b)
  for (size_t r = 0; r < n; ++r) {
    const NodeId x = order[r];
    downs.clear();
    ups.clear();
    for (uint32_t i = down_off[x]; i < down_off[x + 1];) {
      const NodeId a = down[i].node;
      double ca = cw_down[i];
      for (++i; i < down_off[x + 1] && down[i].node == a; ++i) {
        ca = std::min(ca, cw_down[i]);
      }
      if (ca < kInfiniteCost) downs.push_back({a, ca});
    }
    for (uint32_t j = up_off[x]; j < up_off[x + 1];) {
      const NodeId b = up[j].node;
      double cu = cw_up[j];
      for (++j; j < up_off[x + 1] && up[j].node == b; ++j) {
        cu = std::min(cu, cw_up[j]);
      }
      if (cu < kInfiniteCost) ups.push_back({b, cu});
    }
    if (downs.empty() || ups.empty()) continue;
    // Pairs with rank(a) < rank(b): the enclosing arc lives in a's up row.
    for (const auto& [a, ca] : downs) {
      uint32_t k = up_off[a];
      const uint32_t kend = up_off[a + 1];
      auto it = ups.begin();
      while (it != ups.end() && k < kend) {
        if (up[k].node < it->first) {
          ++k;
        } else if (it->first < up[k].node) {
          ++it;
        } else {
          const double cost = ca + it->second;
          if (cost < cw_up[k]) {
            cw_up[k] = cost;
            plane->via_up[k] = x;
          }
          const NodeId b = it->first;
          for (++k; k < kend && up[k].node == b; ++k) {
          }
          ++it;
        }
      }
    }
    // Pairs with rank(a) > rank(b): the enclosing arc lives in b's down row.
    for (const auto& [b, cu] : ups) {
      uint32_t k = down_off[b];
      const uint32_t kend = down_off[b + 1];
      auto it = downs.begin();
      while (it != downs.end() && k < kend) {
        if (down[k].node < it->first) {
          ++k;
        } else if (it->first < down[k].node) {
          ++it;
        } else {
          const double cost = it->second + cu;
          if (cost < cw_down[k]) {
            cw_down[k] = cost;
            plane->via_down[k] = x;
          }
          const NodeId a = it->first;
          for (++k; k < kend && down[k].node == a; ++k) {
          }
          ++it;
        }
      }
    }
  }
  return plane;
}

ChCustomizer::ChCustomizer(const ChIndex& ch, int threads)
    : ch_(ch), threads_(threads) {}

size_t ChCustomizer::total_arcs() const {
  return ch_.NumUpArcs() + ch_.NumDownArcs();
}

void ChCustomizer::EnsureTopology() {
  std::call_once(topology_once_, [this] {
    const size_t n = ch_.NumNodes();
    order_.resize(n);
    for (NodeId v = 0; v < n; ++v) order_[ch_.rank(v)] = v;
    up_.off = ch_.up_offsets();
    up_.arcs = ch_.up_arcs();
    down_.off = ch_.down_offsets();
    down_.arcs = ch_.down_arcs();

    // Runs per row, and the inverted lower-neighbor index over them: for
    // owner f, every apex x with an f-run in its row. Filling by ascending
    // rank of x leaves each owner's list in the reference sweep's apex
    // order.
    for (Half* h : {&up_, &down_}) {
      const auto is_head = [h](NodeId x, uint32_t i) {
        return i == h->off[x] || h->arcs[i - 1].node != h->arcs[i].node;
      };
      h->run_off.assign(n + 1, 0);
      h->inv_off.assign(n + 1, 0);
      for (NodeId x = 0; x < n; ++x) {
        for (uint32_t i = h->off[x]; i < h->off[x + 1]; ++i) {
          if (!is_head(x, i)) continue;
          ++h->run_off[x + 1];
          ++h->inv_off[h->arcs[i].node + 1];
        }
      }
      for (size_t v = 1; v <= n; ++v) {
        h->run_off[v] += h->run_off[v - 1];
        h->inv_off[v] += h->inv_off[v - 1];
      }
      h->inv.resize(h->inv_off[n]);
      h->run_node.resize(h->run_off[n]);
      std::vector<uint32_t> cursor(h->inv_off.begin(), h->inv_off.end() - 1);
      for (const NodeId x : order_) {
        for (uint32_t i = h->off[x]; i < h->off[x + 1]; ++i) {
          if (is_head(x, i)) h->inv[cursor[h->arcs[i].node]++] = {x, 0, 0};
        }
      }
    }

    // Rank-sorted runs: walking far endpoints f by ascending rank and
    // appending each f-run to its row is a counting sort by far rank. Once
    // f's runs are placed, a row's cursor is where its runs ranked above f
    // start — the suffix of f's inverted entries in the other half.
    std::vector<uint32_t> up_cursor(up_.run_off.begin(), up_.run_off.end() - 1);
    std::vector<uint32_t> down_cursor(down_.run_off.begin(),
                                      down_.run_off.end() - 1);
    const auto place = [](Half& h, std::vector<uint32_t>& cursor, NodeId f) {
      for (uint32_t e = h.inv_off[f]; e < h.inv_off[f + 1]; ++e) {
        const uint32_t p = cursor[h.inv[e].x]++;
        h.run_node[p] = f;
        h.inv[e].leg = p;
      }
    };
    for (const NodeId f : order_) {
      place(up_, up_cursor, f);
      place(down_, down_cursor, f);
      for (uint32_t e = up_.inv_off[f]; e < up_.inv_off[f + 1]; ++e) {
        up_.inv[e].suffix = down_cursor[up_.inv[e].x];
      }
      for (uint32_t e = down_.inv_off[f]; e < down_.inv_off[f + 1]; ++e) {
        down_.inv[e].suffix = up_cursor[down_.inv[e].x];
      }
    }
  });
}

void ChCustomizer::EnsureLevels() {
  std::call_once(levels_once_, [this] {
    EnsureTopology();
    const size_t n = ch_.NumNodes();
    // Contraction levels: level(v) = 1 + max level over lower neighbors.
    // Walking nodes by ascending rank makes every propagation x -> f flow
    // from an already-final level (all of f's lower neighbors outrank-
    // precede f), so one pass suffices.
    std::vector<uint32_t> level_of(n, 0);
    uint32_t max_level = 0;
    for (const NodeId x : order_) {
      const uint32_t lx = level_of[x] + 1;
      for (const Half* h : {&up_, &down_}) {
        for (uint32_t p = h->run_off[x]; p < h->run_off[x + 1]; ++p) {
          level_of[h->run_node[p]] = std::max(level_of[h->run_node[p]], lx);
        }
      }
      max_level = std::max(max_level, level_of[x]);
    }
    // Nodes grouped by level, ascending rank inside each group (the fill
    // below walks ranks in order, so the counting sort is stable in rank).
    level_offsets_.assign(max_level + 2, 0);
    for (NodeId v = 0; v < n; ++v) ++level_offsets_[level_of[v] + 1];
    for (size_t l = 1; l < level_offsets_.size(); ++l) {
      level_offsets_[l] += level_offsets_[l - 1];
    }
    level_order_.resize(n);
    std::vector<uint32_t> cursor(level_offsets_.begin(),
                                 level_offsets_.end() - 1);
    for (const NodeId v : order_) level_order_[cursor[level_of[v]]++] = v;
  });
}

size_t ChCustomizer::num_levels() {
  EnsureLevels();
  return level_offsets_.size() - 1;
}

void ChCustomizer::PrepareScratch(size_t workers) {
  min_up_.resize(up_.run_node.size());
  min_down_.resize(down_.run_node.size());
  if (pos_maps_.size() < workers) pos_maps_.resize(workers);
  for (size_t w = 0; w < workers; ++w) {
    if (pos_maps_[w].empty()) pos_maps_[w].assign(ch_.NumNodes(), kChNoArc);
  }
}

template <bool kUp>
void ChCustomizer::PriceRow(NodeId l, const ChClassWeights& weights,
                            uint32_t* pos, ChCustomization* plane) {
  const Half& t = kUp ? up_ : down_;
  const Half& o = kUp ? down_ : up_;
  double* cw = (kUp ? plane->cw_up : plane->cw_down).data();
  NodeId* via = (kUp ? plane->via_up : plane->via_down).data();
  double* run_min = (kUp ? min_up_ : min_down_).data();
  const double* leg_min = (kUp ? min_down_ : min_up_).data();
  const uint32_t begin = t.off[l];
  const uint32_t end = t.off[l + 1];
  if (begin == end) return;
  // Base costs, and the run heads into the position map. Only run heads
  // are ever relaxed, so a non-head record is final here.
  for (uint32_t i = begin; i < end; ++i) {
    cw[i] = t.arcs[i].orig == kChShortcutEdge ? kInfiniteCost
                                              : Dot(t.arcs[i].len, weights);
    via[i] = kInvalidNode;
    if (i == begin || t.arcs[i - 1].node != t.arcs[i].node) {
      pos[t.arcs[i].node] = i;
    }
  }
  // Targets l -> h (kUp) close triangles over apexes x with l in x's down
  // row (leg l -> x) and h in x's up row (leg x -> h); targets h -> l
  // mirror it. Only x's runs ranked above l can close a triangle with an
  // arc of l's row, and by triangle closure each of them does. Apexes
  // ascend in rank, each target sees one candidate per apex built from the
  // run minima, and improvement is strict: the reference's candidates in
  // the reference's order.
  for (uint32_t e = o.inv_off[l]; e < o.inv_off[l + 1]; ++e) {
    const LowerRef& lr = o.inv[e];
    const double leg = leg_min[lr.leg];
    if (!(leg < kInfiniteCost)) continue;
    const uint32_t qend = t.run_off[lr.x + 1];
    for (uint32_t q = lr.suffix; q < qend; ++q) {
      // Missing only when the index is not closed: skipped, exactly as the
      // reference's merge finds no target.
      const uint32_t k = pos[t.run_node[q]];
      if (k == kChNoArc) continue;
      const double far = run_min[q];
      if (!(far < kInfiniteCost)) continue;
      // The reference's operand order: down leg + up leg.
      const double cost = kUp ? leg + far : far + leg;
      if (cost < cw[k]) {
        cw[k] = cost;
        via[k] = lr.x;
      }
    }
  }
  for (uint32_t i = begin; i < end; ++i) pos[t.arcs[i].node] = kChNoArc;
  // The row is final: publish its run minima for the owners above.
  for (uint32_t p = t.run_off[l]; p < t.run_off[l + 1]; ++p) {
    pos[t.run_node[p]] = p;
  }
  for (uint32_t i = begin; i < end; ++i) {
    double& m = run_min[pos[t.arcs[i].node]];
    m = i == begin || t.arcs[i - 1].node != t.arcs[i].node
            ? cw[i]
            : std::min(m, cw[i]);
  }
  for (uint32_t p = t.run_off[l]; p < t.run_off[l + 1]; ++p) {
    pos[t.run_node[p]] = kChNoArc;
  }
}

void ChCustomizer::PriceNode(NodeId l, const ChClassWeights& weights,
                             uint32_t* pos, ChCustomization* plane) {
  PriceRow<true>(l, weights, pos, plane);
  PriceRow<false>(l, weights, pos, plane);
}

void ChCustomizer::CustomizeParallel(const ChClassWeights& weights,
                                     ChCustomization* plane) {
  EnsureLevels();
  const size_t num_levels = level_offsets_.size() - 1;
  const int workers = threads_;
  PrepareScratch(workers);
  std::barrier barrier(workers);
  auto worker_fn = [&](int w) {
    uint32_t* pos = pos_maps_[w].data();
    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
      const uint32_t begin = level_offsets_[lvl];
      const uint32_t end = level_offsets_[lvl + 1];
      const uint32_t span = end - begin;
      // Contiguous per-worker chunk: writes are confined to owned rows and
      // their run minima, so any disjoint partition is race-free and
      // bit-identical.
      const uint32_t lo = begin + static_cast<uint32_t>(
                                      static_cast<uint64_t>(span) * w / workers);
      const uint32_t hi =
          begin + static_cast<uint32_t>(static_cast<uint64_t>(span) * (w + 1) /
                                        workers);
      for (uint32_t i = lo; i < hi; ++i) {
        PriceNode(level_order_[i], weights, pos, plane);
      }
      barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  for (std::thread& t : pool) t.join();
}

std::shared_ptr<const ChCustomization> ChCustomizer::Customize(
    const ChClassWeights& weights) {
  EnsureTopology();
  auto plane = std::make_shared<ChCustomization>();
  plane->weights = weights;
  plane->cw_up.resize(ch_.NumUpArcs());
  plane->cw_down.resize(ch_.NumDownArcs());
  plane->via_up.resize(ch_.NumUpArcs());
  plane->via_down.resize(ch_.NumDownArcs());
  if (threads_ <= 1) {
    // One worker: rank order finalizes every apex before its owners.
    PrepareScratch(1);
    uint32_t* pos = pos_maps_[0].data();
    for (const NodeId l : order_) {
      PriceNode(l, weights, pos, plane.get());
    }
  } else {
    CustomizeParallel(weights, plane.get());
  }
  return plane;
}

ChCustomizationCache::ChCustomizationCache(const ChIndex& ch, int threads,
                                           size_t max_planes)
    : ch_(ch),
      max_planes_(std::max<size_t>(1, max_planes)),
      customizer_(ch, threads),
      table_(std::make_shared<const Table>()) {}

namespace {

uint64_t WeightsDigest(const ChClassWeights& w) {
  // splitmix64 over the raw bit patterns; exact-equality verification on
  // probe makes collisions harmless (they only force a second compare).
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int c = 0; c < kChNumClasses; ++c) {
    uint64_t x = std::bit_cast<uint64_t>(w.w[c]);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    h = (h ^ x) * 0xFF51AFD7ED558CCDull;
  }
  return h;
}

}  // namespace

std::shared_ptr<const ChCustomizationCache::Table>
ChCustomizationCache::SnapshotTable() const {
  std::lock_guard<std::mutex> lock(table_mu_);
  return table_;  // copy under the lock; callers scan the snapshot lock-free
}

std::shared_ptr<const ChCustomization> ChCustomizationCache::Find(
    uint64_t digest, const ChClassWeights& weights) const {
  // One short-critical-section pointer copy pins an immutable table
  // snapshot (publication can proceed concurrently; this reader keeps its
  // snapshot and the planes inside it alive by refcount).
  std::shared_ptr<const Table> snap = SnapshotTable();
  for (const Entry& e : *snap) {
    if (e.digest == digest && SameWeights(e.plane->weights, weights)) {
      return e.plane;
    }
  }
  return nullptr;
}

std::shared_ptr<const ChCustomization> ChCustomizationCache::Probe(
    uint64_t digest, const ChClassWeights& weights) {
  std::shared_ptr<const ChCustomization> plane = Find(digest, weights);
  std::atomic<uint64_t>& count = plane != nullptr ? hits_ : misses_;
  count.fetch_add(1, std::memory_order_relaxed);
  if (obs::Counter* mirror = plane != nullptr ? hits_mirror_ : misses_mirror_) {
    mirror->Add();
  }
  return plane;
}

std::shared_ptr<const ChCustomization> ChCustomizationCache::Get(
    const ChClassWeights& weights, bool* built) {
  if (built != nullptr) *built = false;
  const uint64_t digest = WeightsDigest(weights);
  if (auto plane = Probe(digest, weights)) return plane;
  // Build path: one mutex serializes builds, so concurrent misses for the
  // same bucket collapse into a single sweep — the (N-1)/N dedup.
  std::lock_guard<std::mutex> lock(build_mu_);
  if (auto plane = Find(digest, weights)) return plane;  // built meanwhile
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const ChCustomization> plane = customizer_.Customize(weights);
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (builds_mirror_ != nullptr) builds_mirror_->Add();
  if (customize_ns_ != nullptr) customize_ns_->Record(ns);
  if (built != nullptr) *built = true;
  // Publish: copy-on-write successor table (oldest-first eviction keeps the
  // table bounded; evicted planes stay alive while any reader holds them).
  // Only build_mu_ holders publish, so the snapshot is still current.
  auto next = std::make_shared<Table>(*SnapshotTable());
  next->push_back({digest, plane});
  if (next->size() > max_planes_) next->erase(next->begin());
  {
    std::lock_guard<std::mutex> publish(table_mu_);
    table_ = std::shared_ptr<const Table>(std::move(next));
  }
  return plane;
}

std::shared_ptr<const ChCustomization> ChCustomizationCache::Lookup(
    const ChClassWeights& weights) {
  if (auto plane = Probe(WeightsDigest(weights), weights)) return plane;
  deferred_.fetch_add(1, std::memory_order_relaxed);
  if (deferred_mirror_ != nullptr) deferred_mirror_->Add();
  return nullptr;
}

size_t ChCustomizationCache::size() const { return SnapshotTable()->size(); }

void ChCustomizationCache::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    hits_mirror_ = nullptr;
    misses_mirror_ = nullptr;
    builds_mirror_ = nullptr;
    deferred_mirror_ = nullptr;
    customize_ns_ = nullptr;
    return;
  }
  hits_mirror_ = registry->GetCounter("ch.cache.hits", "plane fetches");
  misses_mirror_ = registry->GetCounter("ch.cache.misses", "plane fetches");
  builds_mirror_ = registry->GetCounter("ch.cache.builds", "sweeps");
  deferred_mirror_ =
      registry->GetCounter("ch.cache.deferred", "dijkstra batches");
  customize_ns_ = registry->GetHistogram("ch.customize_ns", "ns");
}

}  // namespace ecocharge
