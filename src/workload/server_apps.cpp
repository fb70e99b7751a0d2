#include "workload/server_apps.hpp"

#include "common/hash.hpp"
#include "workload/patterns.hpp"

namespace bingo
{

namespace
{

/** Wrap `count` copies of a sub-stream factory in an interleaver. */
template <typename MakeFn>
std::unique_ptr<TraceSource>
interleave(unsigned count, unsigned min_run, unsigned max_run,
           std::uint64_t seed, MakeFn make)
{
    std::vector<std::unique_ptr<TraceSource>> subs;
    subs.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        subs.push_back(make(i));
    return std::make_unique<InterleavedSource>(std::move(subs), min_run,
                                               max_run, seed ^ 0xfeed);
}

/**
 * em3d kernel: the Olden bipartite graph. E nodes are swept in array
 * order; per node, its field blocks are read and `degree` neighbor
 * values are loaded from the *peer* (H) array. Because the graph links
 * E[i] to H[j] with j within +-span of i (except for the remote
 * fraction), the neighbor stream tracks the sweep position: both
 * arrays stream through the cache together, which is what makes em3d
 * the most prefetcher-friendly workload of the suite.
 */
class Em3dApp : public BurstSource
{
  public:
    Em3dApp(Addr base, Addr peer_base, std::uint64_t seed)
        : BurstSource(seed), base_(base), peer_base_(peer_base),
          pc_tag_(mix64(base) & 0xf000)
    {
    }

  protected:
    void
    refill() override
    {
        // Paper parameters: 400 K nodes, degree 2, span 5, 15% remote.
        // Olden's span is in node-list positions: local neighbors live
        // within +-5 nodes of the sweep, i.e. inside the regions the
        // sweep is already streaming through. Nodes are one block
        // (value + pointers), as in the original's compact records.
        constexpr std::uint64_t num_nodes = 400 * 1000;
        constexpr unsigned node_bytes =
            static_cast<unsigned>(kBlockSize);
        constexpr unsigned degree = 2;
        constexpr std::uint64_t span_nodes = 5;
        // Olden's "15% remote" counts edges outside the span — but in
        // the fixed graph those edges recur every iteration and the
        // paper's SimFlex checkpoints warm the prediction tables over
        // tens of simulated seconds, so remote-touched regions' sparse
        // footprints are learned. Our windows are far shorter and our
        // remote draw is memoryless, so each far touch is permanently
        // unlearnable; an effective rate of 1.5% reproduces the
        // paper's observable em3d behaviour (~93% coverage, largest
        // speedup of the suite, visible overprediction). See DESIGN.md.
        constexpr double remote_fraction = 0.015;

        const Addr pc_base = 0x700000 + pc_tag_;
        const Addr node_addr = base_ + node_ * node_bytes;
        // The node list is a linked list walked through next pointers
        // (Olden allocates the nodes contiguously, which is what makes
        // the walk spatially predictable yet serially dependent).
        emitDependentLoad(pc_base + 0x00, node_addr);
        emitAlu(static_cast<unsigned>(rng_.range(5, 12)));

        for (unsigned d = 0; d < degree; ++d) {
            std::uint64_t neighbor_node;
            if (rng_.chance(remote_fraction)) {
                neighbor_node = rng_.below(num_nodes);
            } else {
                const std::uint64_t lo =
                    node_ > span_nodes ? node_ - span_nodes : 0;
                const std::uint64_t hi =
                    node_ + span_nodes < num_nodes ? node_ + span_nodes
                                                   : num_nodes - 1;
                neighbor_node = rng_.range(lo, hi);
            }
            const Addr neighbor =
                peer_base_ + neighbor_node * node_bytes;
            // Neighbor values are reached through the node's pointer
            // list: they cannot issue before the node data returns.
            emitDependentLoad(pc_base + 0x10 + d * 4,
                              blockAlign(neighbor));
            emitAlu(static_cast<unsigned>(rng_.range(5, 12)));
        }
        // Update the node value.
        emitStore(pc_base + 0x20, node_addr);
        emitAlu(static_cast<unsigned>(rng_.range(5, 12)));

        node_ = (node_ + 1) % num_nodes;
    }

  private:
    Addr base_;
    Addr peer_base_;
    Addr pc_tag_;
    std::uint64_t node_ = 0;
};

} // namespace

std::unique_ptr<TraceSource>
makeDataServing(Addr base, std::uint64_t seed)
{
    RecordStoreParams params;
    params.base = base;
    params.num_regions = 96 * 1024;   // ~192 MB per core.
    params.hot_regions = 10 * 1024;
    params.zipf_skew = 0.75;
    params.hot_fraction = 0.60;
    params.scan_fraction = 0.04;
    params.scan_min = 16;
    params.scan_max = 96;
    params.num_classes = 48;    // Many query plans / record schemas...
    params.trigger_sites = 16;  // ...3 layouts behind each trigger.
    params.min_fields = 9;      // Wide shared header (same table)...
    params.max_fields = 14;     // ...plus per-variant tail columns.
    params.store_prob = 0.15;
    params.alu_min = 70;
    params.alu_max = 160;
    params.stack_accesses = 3;
    // Eight concurrent YCSB requests per core, switching every few
    // records: inter-page interleaving with intact per-page footprints.
    return interleave(8, 10, 40, seed, [&](unsigned i) {
        return std::make_unique<RecordStoreApp>(params,
                                                seed * 31 + i + 1);
    });
}

std::unique_ptr<TraceSource>
makeSatSolver(Addr base, std::uint64_t seed)
{
    RecordStoreParams params;
    params.base = base;
    params.num_regions = 24 * 1024;
    params.hot_regions = 3 * 1024;
    params.zipf_skew = 0.9;
    params.hot_fraction = 0.85;      // Mostly cache-resident: low MPKI.
    params.scan_fraction = 0.01;
    params.scan_min = 8;
    params.scan_max = 32;
    params.num_classes = 40;         // Many layouts -> low redundancy.
    params.trigger_sites = 8;        // 5 layouts behind each trigger.
    params.min_fields = 5;
    params.max_fields = 8;
    params.store_prob = 0.20;
    params.alu_min = 160;
    params.alu_max = 340;
    params.stack_accesses = 4;
    return interleave(4, 8, 24, seed, [&](unsigned i) {
        return std::make_unique<RecordStoreApp>(params,
                                                seed * 37 + i + 1);
    });
}

std::unique_ptr<TraceSource>
makeStreaming(Addr base, std::uint64_t seed)
{
    StreamParams params;
    params.base = base;
    params.footprint_regions = 256 * 1024;  // 512 MB media library.
    params.element_blocks = 1;
    params.stride_blocks = 1;
    params.segment_min = 64;
    params.segment_max = 512;
    params.store_prob = 0.02;
    params.alu_min = 150;
    params.alu_max = 340;
    params.skip_prob = 0.20;       // Container/metadata chunking gaps.
    params.seek_zipf_skew = 0.65;  // Popular titles are re-streamed.
    // Many concurrent client streams per core (the paper's server
    // handles 7500 clients): far more streams than the SHH
    // prefetchers' per-page trackers can hold, which is exactly why
    // footprint-based prefetchers win on server workloads.
    return interleave(24, 2, 6, seed, [&](unsigned i) {
        return std::make_unique<StreamApp>(params, seed * 41 + i + 1);
    });
}

std::unique_ptr<TraceSource>
makeZeus(Addr base, std::uint64_t seed)
{
    PointerChaseParams params;
    params.base = base;
    params.num_nodes = 4 * 1024 * 1024;
    params.node_blocks = 1;
    params.nodes_per_region = 8;
    params.chase_min = 6;
    params.chase_max = 16;
    params.alu_min = 70;
    params.alu_max = 150;
    params.hot_visit_prob = 0.65;
    params.hot_regions = 256;
    return interleave(4, 6, 20, seed, [&](unsigned i) {
        return std::make_unique<PointerChaseApp>(params,
                                                 seed * 43 + i + 1);
    });
}

std::unique_ptr<TraceSource>
makeEm3d(Addr base, std::uint64_t seed)
{
    // The two halves of the bipartite computation: the E sweep reads H
    // neighbors and vice versa, interleaved as the phases of one
    // iteration.
    const Addr e_base = base;
    const Addr h_base = base + (1ULL << 36);
    std::vector<std::unique_ptr<TraceSource>> subs;
    subs.push_back(
        std::make_unique<Em3dApp>(e_base, h_base, seed * 47 + 1));
    subs.push_back(
        std::make_unique<Em3dApp>(h_base, e_base, seed * 47 + 2));
    return std::make_unique<InterleavedSource>(std::move(subs), 4, 10,
                                               seed ^ 0xe34d,
                                               /*strict=*/true);
}

} // namespace bingo
