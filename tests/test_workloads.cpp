/**
 * @file
 * Tests for the workload generators: determinism, registry coverage,
 * record validity, class construction, interleaving, and the memory
 * behaviour knobs the evaluation depends on.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

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

/** Memory-op density must be sane for every workload. */
class WorkloadDensityTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDensityTest, MemoryFractionInRange)
{
    auto source = makeWorkload(GetParam(), 0, 42);
    int mem = 0;
    const int total = 50000;
    for (int i = 0; i < total; ++i) {
        const TraceRecord rec = source->next();
        mem += rec.type == InstrType::Load ||
               rec.type == InstrType::Store;
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

TEST(Interleaver, StrictModeRoundRobins)
{
    struct Tagged : TraceSource
    {
        explicit Tagged(Addr tag) : record{tag, 0, InstrType::Alu} {}
        const TraceRecord *
        borrowBatch(std::size_t, std::size_t &got) override
        {
            got = 1;
            return &record;
        }
        TraceRecord record;
    };
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
    struct Tagged : TraceSource
    {
        explicit Tagged(Addr tag) : record{tag, 0, InstrType::Alu} {}
        const TraceRecord *
        borrowBatch(std::size_t, std::size_t &got) override
        {
            got = 1;
            return &record;
        }
        TraceRecord record;
    };
    std::vector<std::unique_ptr<TraceSource>> subs;
    for (Addr t = 1; t <= 4; ++t)
        subs.push_back(std::make_unique<Tagged>(t));
    InterleavedSource inter(std::move(subs), 2, 5, 42);
    std::set<Addr> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(inter.next().pc);
    EXPECT_EQ(seen.size(), 4u);
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
