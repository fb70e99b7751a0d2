/**
 * @file
 * Tests for the workload generators: determinism, registry coverage,
 * record validity, class construction, interleaving, and the memory
 * behaviour knobs the evaluation depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "sim/translation.hpp"
#include "workload/generator.hpp"
#include "workload/patterns.hpp"
#include "workload/server_apps.hpp"
#include "workload/spec_kernels.hpp"

namespace bingo
{
namespace
{

TEST(WorkloadRegistry, TenTableIIWorkloads)
{
    const auto &names = workloadNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "Data Serving");
    EXPECT_EQ(names.back(), "Mix 5");
    for (const std::string &name : names)
        EXPECT_FALSE(workloadDescription(name).empty()) << name;
}

TEST(WorkloadRegistry, TwelveSpecKernels)
{
    EXPECT_EQ(specKernelNames().size(), 12u);
    for (const std::string &name : specKernelNames()) {
        auto kernel = makeSpecKernel(name, 1);
        ASSERT_NE(kernel, nullptr) << name;
        // Produces well-formed records.
        for (int i = 0; i < 1000; ++i) {
            const TraceRecord rec = kernel->next();
            if (rec.type == InstrType::Load ||
                rec.type == InstrType::Store) {
                EXPECT_NE(rec.pc, 0u);
            }
        }
    }
}

TEST(WorkloadRegistry, UnknownNamesThrow)
{
    EXPECT_THROW(makeWorkload("No Such App", 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(makeSpecKernel("fortranify", 1),
                 std::invalid_argument);
}

TEST(Workloads, DeterministicPerSeed)
{
    for (const std::string &name : workloadNames()) {
        auto a = makeWorkload(name, 0, 7);
        auto b = makeWorkload(name, 0, 7);
        for (int i = 0; i < 2000; ++i) {
            const TraceRecord ra = a->next();
            const TraceRecord rb = b->next();
            ASSERT_EQ(ra.pc, rb.pc) << name << " record " << i;
            ASSERT_EQ(ra.addr, rb.addr) << name << " record " << i;
            ASSERT_EQ(static_cast<int>(ra.type),
                      static_cast<int>(rb.type));
        }
    }
}

TEST(Workloads, SeedsChangeTheStream)
{
    auto a = makeWorkload("Data Serving", 0, 1);
    auto b = makeWorkload("Data Serving", 0, 2);
    int differences = 0;
    for (int i = 0; i < 2000; ++i) {
        if (a->next().addr != b->next().addr)
            ++differences;
    }
    EXPECT_GT(differences, 100);
}

TEST(Workloads, CoresUseDisjointHeaps)
{
    auto a = makeWorkload("Data Serving", 0, 7);
    auto b = makeWorkload("Data Serving", 1, 7);
    std::set<Addr> pages_a;
    std::set<Addr> pages_b;
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a->next();
        const TraceRecord rb = b->next();
        if (ra.type == InstrType::Load || ra.type == InstrType::Store)
            pages_a.insert(ra.addr >> 30);
        if (rb.type == InstrType::Load || rb.type == InstrType::Store)
            pages_b.insert(rb.addr >> 30);
    }
    for (Addr page : pages_a)
        EXPECT_EQ(pages_b.count(page), 0u);
}

/**
 * Fold the first `n` instructions of `source` into a hash: each one's
 * type and dependent flag, and a memory instruction's PC and address.
 * Counted records are hashed as the instructions they stand for.
 */
std::uint64_t
hashInstructions(TraceSource &source, std::uint64_t n)
{
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
    std::uint64_t seen = 0;
    while (seen < n) {
        std::size_t got = 0;
        const TraceRecord *window =
            source.borrowBatch(TraceSource::kWindowRecords, got);
        for (std::size_t i = 0; i < got && seen < n; ++i) {
            const TraceRecord &rec = window[i];
            for (std::uint64_t k = 0; k < rec.count && seen < n;
                 ++k, ++seen) {
                hash = hashCombine(
                    hash, static_cast<std::uint64_t>(rec.type) |
                              (std::uint64_t{rec.dependent} << 8));
                if (isMemory(rec.type)) {
                    hash = hashCombine(hash, rec.pc);
                    hash = hashCombine(hash, rec.addr);
                }
            }
        }
    }
    return hash;
}

/** Hashes of one workload's streams on cores 0-3 at seed 1. */
struct StreamPin
{
    const char *workload;
    std::uint64_t virtual_hash[4];     ///< makeWorkload() itself.
    std::uint64_t translated_hash[4];  ///< Composed with translation.
};

/**
 * Pinned from the generators that emitted one record per instruction,
 * so they hold every later generator edit to the same instructions.
 */
constexpr StreamPin kStreamPins[] = {
    {"Data Serving",
     {0x4048ed039b4171a5ULL, 0x4d82ffc522d7cb65ULL,
      0xee77daf171e57c56ULL, 0x5287c342f561c892ULL},
     {0x6a24db6fd491f1c5ULL, 0x4383ba6d9edb564dULL,
      0x7b55cef655891e95ULL, 0xb45ffdd6cd8c67f1ULL}},
    {"SAT Solver",
     {0x2d1177b67195ff81ULL, 0xeed8ff84387aceaaULL,
      0x0672220c9321c494ULL, 0xf81bd301a0c396daULL},
     {0x78b2d941956d81deULL, 0xf0346e4a1c9c4f98ULL,
      0x08605d2ffcf115f5ULL, 0x69974cba2e227eb0ULL}},
    {"Streaming",
     {0x4bdc107da384e3a4ULL, 0xfdd8d17e2afe5c8dULL,
      0x354ddbb9c7e13cd6ULL, 0x90f6eb3b9e71043eULL},
     {0x1e455c987e631e5bULL, 0xe3576da95052d54bULL,
      0xa3bb894b80c3f78cULL, 0xa3d9152dd91e4c04ULL}},
    {"Zeus",
     {0xae37a27c712be2f8ULL, 0x2600c3fac1cd77feULL,
      0x28ed30fc87d3a040ULL, 0x05e77b2dc6a83e6eULL},
     {0x7e39ccb9c4a65e67ULL, 0x57dbe43ff6cb9f08ULL,
      0xf0b4a5f43c3426f3ULL, 0xa7c485efbba70fa2ULL}},
    {"em3d",
     {0x2d35c9ea283f8d89ULL, 0x6b025ddfe033a514ULL,
      0xc440dafe826249d0ULL, 0x2afb1ba8c2673594ULL},
     {0x2b332b3724e9083aULL, 0xa558ec802194b956ULL,
      0xde49ad0a8b5dc0a9ULL, 0xd975185dace5b4f0ULL}},
    {"Mix 1",
     {0xcd3337272b93310eULL, 0x189e68f804a28a2eULL,
      0xa429c4493ecdd7d6ULL, 0xcec4c2b5a4c6802fULL},
     {0x3a6f9b1d4ef31451ULL, 0xd958ec87e749346bULL,
      0xcfbc447b03a2be95ULL, 0xa3f17b510d4543aaULL}},
    {"Mix 2",
     {0xcd3337272b93310eULL, 0xa95dd8b6aa01e148ULL,
      0x6b817fce7e0021c2ULL, 0x0d1cac42dd9b1fd6ULL},
     {0x3a6f9b1d4ef31451ULL, 0xf631eb66be17d52fULL,
      0x4897f46a8e389b07ULL, 0xe16859f1402af1cbULL}},
    {"Mix 3",
     {0xeeb6d9d9db891250ULL, 0x189e68f804a28a2eULL,
      0x0f8862d4fffaf5c9ULL, 0x827f7a794afd92e4ULL},
     {0x4fb2e4de8431c948ULL, 0xd958ec87e749346bULL,
      0x6438b16705d815c9ULL, 0x17b5f51b76054f22ULL}},
    {"Mix 4",
     {0xd9e9c4ac9be98f46ULL, 0x189e68f804a28a2eULL,
      0xa429c4493ecdd7d6ULL, 0x8d061c7f020fc3b1ULL},
     {0x8030cd58c74f6683ULL, 0xd958ec87e749346bULL,
      0xcfbc447b03a2be95ULL, 0xe0040f2a2b2892c5ULL}},
    {"Mix 5",
     {0xb9d723cad1c08132ULL, 0x374cecc547295b4eULL,
      0x886d340bcf1f6d70ULL, 0x827f7a794afd92e4ULL},
     {0x1b60503bb6079911ULL, 0xd24ffe11cbc883e0ULL,
      0x5cc480f71ef11c2aULL, 0x17b5f51b76054f22ULL}},
    {"Markov Chase",
     {0x84aa768d5d1b855fULL, 0x11e3c924987e8faaULL,
      0x8bfe3171b7ecd934ULL, 0x7dd75b88b3aac47eULL},
     {0x4fe60bc8ee98c4f3ULL, 0x3fcfbefbbd3f9766ULL,
      0xdb400654c201ccf9ULL, 0xbf6719cef50df0efULL}},
};

TEST(WorkloadStreams, FirstInstructionsMatchThePins)
{
    std::vector<std::string> names = workloadNames();
    for (const std::string &name : temporalWorkloadNames())
        names.push_back(name);
    ASSERT_EQ(names.size(), std::size(kStreamPins));
    for (const StreamPin &pin : kStreamPins) {
        EXPECT_NE(std::find(names.begin(), names.end(), pin.workload),
                  names.end())
            << pin.workload;
        for (CoreId core = 0; core < 4; ++core) {
            auto generator = makeWorkload(pin.workload, core, 1);
            EXPECT_EQ(hashInstructions(*generator, 200000),
                      pin.virtual_hash[core])
                << pin.workload << ", core " << core << ", virtual";
            TranslatingSource translated(
                makeWorkload(pin.workload, core, 1), AddressTranslator(1));
            EXPECT_EQ(hashInstructions(translated, 200000),
                      pin.translated_hash[core])
                << pin.workload << ", core " << core << ", translated";
        }
    }
}

/** Memory-op density must be sane for every workload. */
class WorkloadDensityTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDensityTest, MemoryFractionInRange)
{
    auto source = makeWorkload(GetParam(), 0, 42);
    std::uint64_t mem = 0;
    std::uint64_t total = 0;
    while (total < 50000) {
        const TraceRecord rec = source->next();
        mem += isMemory(rec.type);
        total += rec.count;
    }
    const double fraction = static_cast<double>(mem) / total;
    EXPECT_GT(fraction, 0.002) << GetParam();
    EXPECT_LT(fraction, 0.6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDensityTest,
                         ::testing::ValuesIn(workloadNames()));

TEST(RecordClasses, TriggerSharedPerSite)
{
    Rng rng(3);
    auto classes =
        RecordClass::makeClasses(6, 2, kBlocksPerRegion, 4, 10, rng);
    ASSERT_EQ(classes.size(), 6u);
    // Classes 0,2,4 share site 0; classes 1,3,5 share site 1.
    EXPECT_EQ(classes[0].field_pcs[0], classes[2].field_pcs[0]);
    EXPECT_EQ(classes[0].field_offsets[0], classes[4].field_offsets[0]);
    EXPECT_NE(classes[0].field_pcs[0], classes[1].field_pcs[0]);
}

TEST(RecordClasses, FieldOffsetsDistinct)
{
    Rng rng(5);
    auto classes =
        RecordClass::makeClasses(8, 4, kBlocksPerRegion, 6, 14, rng);
    for (const RecordClass &cls : classes) {
        std::set<unsigned> unique(cls.field_offsets.begin(),
                                  cls.field_offsets.end());
        EXPECT_EQ(unique.size(), cls.field_offsets.size());
        EXPECT_EQ(cls.field_offsets.size(), cls.field_pcs.size());
        EXPECT_GE(cls.field_offsets.size(), 6u);
        EXPECT_LE(cls.field_offsets.size(), 14u);
        for (unsigned off : cls.field_offsets)
            EXPECT_LT(off, kBlocksPerRegion);
    }
}

TEST(RecordClasses, SameSiteClassesShareBaseSchema)
{
    Rng rng(7);
    auto classes =
        RecordClass::makeClasses(4, 2, kBlocksPerRegion, 5, 12, rng);
    // Classes 0 and 2 share site 0: their first min_fields offsets
    // (trigger + base) must coincide.
    for (std::size_t f = 0; f < 4; ++f) {
        EXPECT_EQ(classes[0].field_offsets[f],
                  classes[2].field_offsets[f]);
    }
}

/**
 * Lends one tagged load forever. Loads, because the interleaver merges
 * adjacent compute records whatever sub-stream they come from.
 */
struct Tagged : TraceSource
{
    explicit Tagged(Addr tag) : record{tag, tag * 64, InstrType::Load} {}
    const TraceRecord *
    borrowBatch(std::size_t, std::size_t &got) override
    {
        got = 1;
        return &record;
    }
    TraceRecord record;
};

TEST(Interleaver, StrictModeRoundRobins)
{
    std::vector<std::unique_ptr<TraceSource>> subs;
    subs.push_back(std::make_unique<Tagged>(1));
    subs.push_back(std::make_unique<Tagged>(2));
    InterleavedSource inter(std::move(subs), 1, 1, 42,
                            /*strict=*/true);
    // Strict alternation with run length 1: tags alternate exactly.
    Addr prev = inter.next().pc;
    for (int i = 0; i < 20; ++i) {
        const Addr cur = inter.next().pc;
        EXPECT_NE(cur, prev);
        prev = cur;
    }
}

TEST(Interleaver, RandomModeCoversAllSources)
{
    std::vector<std::unique_ptr<TraceSource>> subs;
    for (Addr t = 1; t <= 4; ++t)
        subs.push_back(std::make_unique<Tagged>(t));
    InterleavedSource inter(std::move(subs), 2, 5, 42);
    std::set<Addr> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(inter.next().pc);
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Interleaver, MergesComputeRunsUpToTheCap)
{
    // Sub-streams of compute only: merging stops at the cap, so the
    // look-ahead for a run's end terminates.
    struct Compute : TraceSource
    {
        TraceRecord record{0x7f0000, 0, InstrType::Alu, false, 1000};
        const TraceRecord *
        borrowBatch(std::size_t, std::size_t &got) override
        {
            got = 1;
            return &record;
        }
    };
    std::vector<std::unique_ptr<TraceSource>> subs;
    subs.push_back(std::make_unique<Compute>());
    subs.push_back(std::make_unique<Compute>());
    InterleavedSource inter(std::move(subs), 1, 700, 42);
    for (int i = 0; i < 3; ++i) {
        const TraceRecord rec = inter.next();
        EXPECT_EQ(rec.type, InstrType::Alu);
        EXPECT_LE(rec.count, InterleavedSource::kMaxMergedCount);
        EXPECT_GT(rec.count, InterleavedSource::kMaxMergedCount - 700);
    }
}

TEST(Patterns, RecordStoreRevisitsReproduceFootprints)
{
    RecordStoreParams params;
    params.base = 1ULL << 42;
    params.num_regions = 64;
    params.hot_regions = 64;
    params.hot_fraction = 1.0;
    params.scan_fraction = 0.0;
    params.field_skip_prob = 0.0;
    params.extra_field_prob = 0.0;
    params.store_prob = 0.0;
    params.stack_accesses = 0;
    params.max_fields = 10;

    RecordStoreApp app(params, 7);
    // With noise disabled, each region's footprint is fixed: the union
    // of offsets over many revisits stays within one class layout.
    std::map<Addr, std::set<unsigned>> footprints;
    for (int i = 0; i < 200000; ++i) {
        const TraceRecord rec = app.next();
        if (rec.type != InstrType::Load)
            continue;
        footprints[regionNumber(rec.addr)].insert(
            regionOffset(rec.addr));
    }
    EXPECT_GT(footprints.size(), 30u);
    for (const auto &[region, offsets] : footprints) {
        EXPECT_LE(offsets.size(), params.max_fields)
            << "region " << region;
    }
}

TEST(Patterns, PointerChaseEmitsDependentLoads)
{
    PointerChaseParams params;
    params.base = 1ULL << 42;
    params.hot_visit_prob = 0.0;
    PointerChaseApp app(params, 3);
    int dependent = 0;
    int loads = 0;
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord rec = app.next();
        if (rec.type == InstrType::Load) {
            ++loads;
            dependent += rec.dependent;
        }
    }
    EXPECT_GT(dependent, loads / 2);
}

TEST(Patterns, StreamIsMonotoneWithinSegments)
{
    StreamParams params;
    params.base = 1ULL << 42;
    params.skip_prob = 0.0;
    params.store_prob = 0.0;
    StreamApp app(params, 3);
    Addr prev = 0;
    int backward = 0;
    int loads = 0;
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord rec = app.next();
        if (rec.type != InstrType::Load)
            continue;
        ++loads;
        if (prev != 0 && rec.addr < prev)
            ++backward;  // Only at segment seeks.
        prev = rec.addr;
    }
    EXPECT_LT(backward, loads / 10);
}

} // namespace
} // namespace bingo
