#ifndef ECOCHARGE_CH_CH_CUSTOMIZE_H_
#define ECOCHARGE_CH_CH_CUSTOMIZE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ch/ch_index.h"
#include "obs/metrics.h"

namespace ecocharge {

/// \brief Per-class weights of one query instant.
///
/// The derouting metric at time tau prices an edge at
/// `length / speed_factor(road_class, tau)` — three multipliers, one per
/// RoadClass. The traffic layer builds these from its congestion model;
/// `kChLengthWeights` is the uniform (pure length) metric used for
/// lower-bound ordering queries.
struct ChClassWeights {
  double w[kChNumClasses] = {1.0, 1.0, 1.0};
};

inline constexpr ChClassWeights kChLengthWeights{};

/// \brief One immutable customized weight plane of a ChIndex.
///
/// `cw_up[i]` / `cw_down[i]` are the customized costs of the index's arc
/// records under `weights`; `via_up[i]` / `via_down[i]` hold the middle
/// node realizing each priced arc (kInvalidNode = the original arc itself
/// is cheapest). A plane is write-once: the customizer fills it, then it
/// is shared read-only — queries keep a shared_ptr, so a plane outlives
/// any cache eviction while a search still reads it.
struct ChCustomization {
  ChClassWeights weights;
  std::vector<double> cw_up;
  std::vector<double> cw_down;
  std::vector<NodeId> via_up;
  std::vector<NodeId> via_down;
};

/// Reference oracle: the bottom-up push sweep. Apexes are processed by
/// ascending rank and every arc enclosing a triangle below it is relaxed,
/// with relaxation targets found by merging sorted rows. No option selects
/// it; tests and the bench_micro_ch_customize gate hold every ChCustomizer
/// strategy bit-identical to it.
std::shared_ptr<const ChCustomization> ChCustomizeReference(
    const ChIndex& ch, const ChClassWeights& weights);

/// \brief Prices a ChIndex for class-weight vectors with one pull kernel:
/// serial and level-parallel runs are both bit-identical to
/// ChCustomizeReference.
///
/// Every node *owns* the arc records of its own rows and finalizes them
/// from the lower triangles that enclose them. Rows are viewed as runs of
/// parallel records sorted by ascending rank of the far endpoint. For owner
/// `l`, a position map sends each far node of `l`'s row to its run-head
/// record; for each apex `x` below `l` (ascending rank, from an inverted
/// index) the kernel scans only the suffix of `x`'s runs ranked above `l`,
/// reading each run's minimum, which `x` published when its own rows
/// became final. By triangle closure every suffix run is in `l`'s row, so
/// the work equals the triangle count and no merge or search is needed; a
/// run missing from a corrupt (non-closed) index is skipped, as the
/// reference skips it. The kernel runs
///  - for `threads <= 1` with one worker, owners in rank order;
///  - for `threads >= 2` level by level: an owner reads only rows of
///    strictly lower contraction *level* (level(v) = 1 + max level over
///    lower neighbors), so all owners of one level run concurrently with a
///    barrier between levels.
///
/// The topology (rank order, rank-sorted runs, inverted lower-neighbor
/// index, levels; 16 bytes per run plus 20 per node) is metric-independent
/// and built lazily exactly once. A customizer is safe to share across
/// threads as long as calls are externally serialized (the
/// ChCustomizationCache holds its build mutex across them): the run minima
/// and position maps are per-customizer scratch. Serving code never holds
/// one directly — planes come from a ChCustomizationCache.
class ChCustomizer {
 public:
  /// \param threads sweep workers: 0 or 1 = one worker in rank order,
  ///   N >= 2 = level-parallel sweep with N workers.
  explicit ChCustomizer(const ChIndex& ch, int threads = 0);

  /// Full customization of `weights`.
  std::shared_ptr<const ChCustomization> Customize(const ChClassWeights& weights);

  int threads() const { return threads_; }
  void set_threads(int threads) { threads_ = threads; }

  /// Contraction levels (built on first use).
  size_t num_levels();

  size_t total_arcs() const;

 private:
  /// One inverted-index entry of owner `l`: apex `x`, the position of the
  /// run x–l among x's rank-sorted runs of this half (the triangle's leg),
  /// and where x's runs ranked above `l` start in its *other* half.
  struct LowerRef {
    NodeId x;
    uint32_t leg;
    uint32_t suffix;
  };
  /// The metric-independent view of one CSR half (up or down): each row's
  /// runs of parallel records, ordered by ascending rank of the far
  /// endpoint, plus the inverted index over them.
  struct Half {
    std::span<const uint32_t> off;  ///< ChIndex record CSR
    std::span<const ChArc> arcs;
    std::vector<uint32_t> run_off;  ///< CSR: node -> its rank-sorted runs
    std::vector<NodeId> run_node;   ///< far endpoint of each run
    std::vector<uint32_t> inv_off;  ///< CSR: owner -> inv entries
    std::vector<LowerRef> inv;      ///< runs of owner in x's row, x rank asc
  };

  void EnsureTopology();  ///< rank order, sorted runs, inverted index
  void EnsureLevels();

  /// Prices `l`'s `kUp` row: initializes every record, relaxes the run
  /// heads over the row's lower triangles and publishes the row's run
  /// minima.
  template <bool kUp>
  void PriceRow(NodeId l, const ChClassWeights& weights, uint32_t* pos,
                ChCustomization* plane);
  void PriceNode(NodeId l, const ChClassWeights& weights, uint32_t* pos,
                 ChCustomization* plane);
  void CustomizeParallel(const ChClassWeights& weights, ChCustomization* plane);
  /// Sizes the run-minima scratch and the position maps of `workers`
  /// workers (all kChNoArc between owners).
  void PrepareScratch(size_t workers);

  const ChIndex& ch_;
  int threads_;

  std::once_flag topology_once_;
  std::vector<NodeId> order_;  ///< rank -> node
  Half up_;
  Half down_;

  std::once_flag levels_once_;
  std::vector<uint32_t> level_offsets_;  ///< CSR into level_order_
  std::vector<NodeId> level_order_;      ///< nodes grouped by level, rank asc

  /// Run minima of the plane being priced, per Half run: an owner writes
  /// its own rows' minima once they are final; higher owners read them.
  std::vector<double> min_up_;
  std::vector<double> min_down_;
  std::vector<std::vector<uint32_t>> pos_maps_;  ///< one per worker
};

/// \brief The one source of customized planes: a shared per-bucket cache
/// with RCU-style publication.
///
/// Every plane a query or a derouting batch reads comes from here, and
/// every build is one full ChCustomizer sweep. Customized planes are
/// immutable once built and a congestion bucket's class weights are a pure
/// function of the bucket, so N server workers asking for the same bucket
/// need exactly one sweep. Only callers that know a plane will be reused
/// build one (Get): tests and benches. A derouting batch only reads
/// published planes (Lookup) and runs Dijkstra on a miss: a sweep costs
/// far more than the Dijkstra batch it would replace once, and exact costs
/// are priced at each query's own instant, so the weights change with
/// every query.
///
/// Readers pin an immutable snapshot of the plane table by copying one
/// shared_ptr under a tiny mutex held only for the refcount bump — the
/// probe scan itself runs lock-free on the snapshot (the WorldEpochs
/// publish-without-blocking idea, with reference counts standing in for
/// the reader-pin ring since planes are heavyweight); writers copy, append,
/// and publish under a single build mutex, which is also what collapses a
/// thundering herd of concurrent misses into one build.
class ChCustomizationCache {
 public:
  /// \param threads sweep workers of every build (see ChCustomizer).
  /// \param max_planes retained planes; beyond it the oldest entry is
  ///   dropped (readers holding it keep it alive).
  ChCustomizationCache(const ChIndex& ch, int threads = 0,
                       size_t max_planes = 64);

  /// The plane for `weights`: a published one when present, else built
  /// (once, however many workers ask concurrently) and published.
  /// `*built` (optional) reports whether THIS call ran the sweep.
  std::shared_ptr<const ChCustomization> Get(const ChClassWeights& weights,
                                             bool* built = nullptr);

  /// The published plane for `weights`, or null (counted as deferred: the
  /// caller runs Dijkstra). Never builds and never takes the build mutex,
  /// so a lookup does not wait on a running sweep.
  std::shared_ptr<const ChCustomization> Lookup(const ChClassWeights& weights);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Sweeps actually run; misses() - builds() is the dedup win.
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  /// Lookup() misses.
  uint64_t deferred() const {
    return deferred_.load(std::memory_order_relaxed);
  }
  size_t size() const;

  const ChIndex& index() const { return ch_; }

  /// Mirrors hit/miss/build/deferred counts onto `registry` under
  /// `ch.cache.*` and records build durations into `ch.customize_ns`; null
  /// detaches. Wire before traffic starts.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    uint64_t digest;
    std::shared_ptr<const ChCustomization> plane;
  };
  using Table = std::vector<Entry>;

  const ChIndex& ch_;
  size_t max_planes_;
  ChCustomizer customizer_;

  /// Publication point: readers copy the current immutable-table pointer
  /// under table_mu_ (held only for the refcounted copy — the scan itself
  /// is lock-free on the snapshot), writers swap in a copied successor.
  /// Deliberately NOT std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic
  /// releases its internal spinlock on the load path with a relaxed RMW,
  /// which leaves reader pointer-copies formally unordered against the
  /// next store — a data race TSan (correctly) reports under the chpar
  /// cache-hammer test. A plain mutex gives the same snapshot semantics
  /// with clean happens-before edges.
  std::shared_ptr<const Table> SnapshotTable() const;
  /// The published plane for `weights`, null when absent; Probe() also
  /// counts the hit or miss.
  std::shared_ptr<const ChCustomization> Find(
      uint64_t digest, const ChClassWeights& weights) const;
  std::shared_ptr<const ChCustomization> Probe(uint64_t digest,
                                               const ChClassWeights& weights);
  mutable std::mutex table_mu_;
  std::shared_ptr<const Table> table_;  // guarded by table_mu_
  std::mutex build_mu_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> deferred_{0};

  obs::Counter* hits_mirror_ = nullptr;
  obs::Counter* misses_mirror_ = nullptr;
  obs::Counter* builds_mirror_ = nullptr;
  obs::Counter* deferred_mirror_ = nullptr;
  obs::Histogram* customize_ns_ = nullptr;

  friend class ChCustomizationCacheTestPeer;  // holds build_mu_ in tests
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_CUSTOMIZE_H_
