#include "workloads/spec.hpp"

#include <memory>

namespace emprof::workloads {

namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * 1024;

/**
 * One loop kernel.  Each iteration executes compute plus a few
 * cache-resident loads; every `burstEvery` iterations it additionally
 * touches cold data (streaming lines, random lines, or a pointer
 * chase).  Real programs spend most cycles in compute and L1/LLC hits
 * with LLC misses arriving in sparse bursts — this is what keeps the
 * stall share in the paper's 0.1-10% range while still exercising
 * every miss pattern EMPROF has to recognise.
 */
struct KernelSpec
{
    Addr codePc = 0x10000;
    Addr dataBase = 0x2000'0000;

    /** Compute ops per iteration. */
    uint32_t computeOps = 120;
    uint32_t mulEvery = 0;
    uint32_t fpEvery = 0;

    /** Cache-resident dependent loads per iteration. */
    uint32_t residentLoads = 1;
    uint64_t residentFootprint = 1 * kKiB;

    /** Iterations between cold bursts (0 = no cold accesses). */
    uint32_t burstEvery = 0;

    /** Sequential (prefetchable) cold loads per burst, independent. */
    uint32_t burstStreamLoads = 0;
    uint64_t coldStreamFootprint = 256 * kKiB;

    /** Random cold loads per burst. */
    uint32_t burstRandomLoads = 0;
    uint64_t coldRandomFootprint = 256 * kKiB;

    /** Random burst loads consume their value (stall-on-use). */
    bool dependentRandom = true;

    /** Pointer-chase: each burst load depends on the previous load. */
    bool chase = false;

    /**
     * Compute ops between consecutive burst loads (index arithmetic,
     * element processing).  Wide spacing makes each miss individually
     * resolvable in the signal; tight spacing (bzip2's block moves,
     * equake's gathers) makes misses overlap and merge — the paper's
     * Fig. 3 behaviour, and why those two benchmarks have the lowest
     * miss accuracy in Table III.
     */
    uint32_t interLoadOps = 44;

    uint8_t phase = 0;
};

/** Mutable per-segment state shared across iterations. */
struct KernelState
{
    KernelState(const KernelSpec &spec, uint64_t seed)
        : resident(spec.dataBase, spec.residentFootprint, seed ^ 0x1),
          stream(spec.dataBase + 0x400'0000, spec.coldStreamFootprint),
          random(spec.dataBase + 0x800'0000, spec.coldRandomFootprint,
                 seed ^ 0x2)
    {}

    RandomAddresses resident;
    StreamAddresses stream;
    RandomAddresses random;

    /** Ops emitted since the last load (for chase dependences). */
    uint32_t sinceLoad = 250;
};

/** Mean ops per iteration (for sizing segments from an op budget). */
uint64_t
opsPerIteration(const KernelSpec &spec)
{
    uint64_t ops = spec.computeOps + 2ull * spec.residentLoads + 1;
    if (spec.burstEvery != 0) {
        const uint64_t uses =
            (spec.dependentRandom && !spec.chase) ? spec.burstRandomLoads
                                                  : 0;
        ops += (spec.burstStreamLoads + spec.burstRandomLoads + uses) /
               spec.burstEvery;
    }
    return ops;
}

/** Add a segment running @p iterations of the kernel. */
void
addKernel(SegmentedWorkload &w, uint64_t iterations, const KernelSpec &spec,
          uint64_t seed)
{
    auto state = std::make_shared<KernelState>(spec, seed);
    w.addSegment(
        iterations,
        [state, spec](std::vector<MicroOp> &out, uint64_t iter) {
            Addr pc = spec.codePc;

            // Compute split around the resident loads.
            const uint32_t chunk =
                spec.computeOps / (spec.residentLoads + 1);
            uint32_t emitted = 0;
            for (uint32_t l = 0; l < spec.residentLoads; ++l) {
                pc = emitCompute(out, pc, chunk, spec.phase, spec.mulEvery,
                                 spec.fpEvery);
                pc = emitDependentLoad(out, pc, state->resident.next(),
                                       spec.phase);
                emitted += chunk;
            }
            pc = emitCompute(out, pc, spec.computeOps - emitted, spec.phase,
                             spec.mulEvery, spec.fpEvery);

            // Cold burst.
            if (spec.burstEvery != 0 &&
                iter % spec.burstEvery == spec.burstEvery - 1) {
                Addr bpc = spec.codePc + 0x800;
                bool first = true;
                auto spacer = [&]() {
                    if (!first) {
                        bpc = emitCompute(out, bpc, spec.interLoadOps,
                                          spec.phase);
                    }
                    first = false;
                };
                for (uint32_t s = 0; s < spec.burstStreamLoads; ++s) {
                    spacer();
                    bpc = emitIndependentLoad(out, bpc,
                                              state->stream.next(),
                                              spec.phase);
                }
                state->sinceLoad = 250;
                for (uint32_t r = 0; r < spec.burstRandomLoads; ++r) {
                    spacer();
                    if (spec.chase) {
                        MicroOp load =
                            sim::makeLoad(bpc, state->random.next());
                        load.phase = spec.phase;
                        load.depDist = static_cast<uint16_t>(
                            state->sinceLoad < 250 ? state->sinceLoad : 0);
                        out.push_back(load);
                        bpc += 4;
                        // Each hop's node is inspected immediately, so
                        // even the first hop of a chain stalls on use.
                        MicroOp use = sim::makeAlu(bpc, /*dep=*/1);
                        use.phase = spec.phase;
                        out.push_back(use);
                        bpc += 4;
                        state->sinceLoad = 2 + spec.interLoadOps;
                    } else if (spec.dependentRandom) {
                        bpc = emitDependentLoad(out, bpc,
                                                state->random.next(),
                                                spec.phase);
                    } else {
                        bpc = emitIndependentLoad(out, bpc,
                                                  state->random.next(),
                                                  spec.phase);
                    }
                }
                pc = bpc;
            }
            emitLoopBranch(out, pc, spec.phase);
        });
}

/** Iterations so the segment emits approximately @p ops dynamic ops. */
uint64_t
iterationsFor(uint64_t ops, const KernelSpec &spec)
{
    const uint64_t per = opsPerIteration(spec);
    return per == 0 ? 1 : (ops + per - 1) / per;
}

std::unique_ptr<SegmentedWorkload>
makeAmmp(uint64_t ops, uint64_t seed)
{
    // FP molecular dynamics: force computation over resident atoms,
    // periodic dependent gathers from a 2 MiB neighbour structure.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x10000;
    k.computeOps = 120;
    k.fpEvery = 3;
    k.residentLoads = 2;
    k.burstEvery = 85;
    k.burstRandomLoads = 2;
    k.interLoadOps = 240; // neighbour processing between gathers
    k.coldRandomFootprint = 128 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeBzip2(uint64_t ops, uint64_t seed)
{
    // Block compression: long compute stretches punctuated by block
    // moves — bursts of independent sequential line fetches with MLP
    // (these are what a stride prefetcher can hide).
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x20000;
    k.computeOps = 180;
    k.mulEvery = 7;
    k.residentLoads = 1;
    k.burstEvery = 160;
    k.burstStreamLoads = 8;
    k.coldStreamFootprint = 512 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeCrafty(uint64_t ops, uint64_t seed)
{
    // Chess search: branchy compute over resident state; sparse hash
    // probes into a table that fits a 1 MiB LLC far better than a
    // 256 KiB one.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x30000;
    k.computeOps = 200;
    k.mulEvery = 10;
    k.residentLoads = 2;
    k.burstEvery = 190;
    k.burstRandomLoads = 1;
    k.coldRandomFootprint = 24 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeEquake(uint64_t ops, uint64_t seed)
{
    // Sparse-matrix FP: indexed gathers (independent - MLP) plus
    // streaming through the matrix.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x40000;
    k.computeOps = 140;
    k.fpEvery = 3;
    k.residentLoads = 1;
    k.burstEvery = 95;
    k.burstStreamLoads = 2;
    k.coldStreamFootprint = 384 * kKiB;
    k.burstRandomLoads = 4;
    k.coldRandomFootprint = 256 * kKiB;
    k.dependentRandom = false;
    k.interLoadOps = 70; // semi-tight gathers: some MLP merging remains
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeGzip(uint64_t ops, uint64_t seed)
{
    // LZ77: sliding-window matching is resident; the input stream is
    // fetched in sequential prefetchable bursts.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x50000;
    k.computeOps = 150;
    k.mulEvery = 8;
    k.residentLoads = 2;
    k.residentFootprint = 1536;
    k.burstEvery = 420;
    k.burstStreamLoads = 3;
    k.coldStreamFootprint = 128 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeMcf(uint64_t ops, uint64_t seed)
{
    // Network simplex: sparse but brutal — bursts of pointer chasing
    // over 8 MiB, each hop fully exposed (no MLP).  Produces the long
    // serial stalls that give mcf its heavy latency tail (Fig. 11).
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k; // refresh_potential
    k.codePc = 0x60000;
    k.computeOps = 64;
    k.residentLoads = 1;
    k.burstEvery = 780;
    k.burstRandomLoads = 3;
    k.coldRandomFootprint = 512 * kKiB;
    k.chase = true;
    k.interLoadOps = 230; // per-hop node processing (chain fits the
                           // core scoreboard window)
    addKernel(*w, iterationsFor(ops * 7 / 10, k), k, seed);

    KernelSpec arcs; // price_out
    arcs.codePc = 0x64000;
    arcs.computeOps = 90;
    arcs.residentLoads = 1;
    arcs.burstEvery = 156;
    arcs.burstRandomLoads = 1;
    arcs.coldRandomFootprint = 256 * kKiB;
    addKernel(*w, iterationsFor(ops * 3 / 10, arcs), arcs, seed + 1);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeParser(uint64_t ops, uint64_t seed)
{
    // Three functions with distinct spectral signatures and miss
    // characters (Fig. 14 / Table V).
    auto w = std::make_unique<SegmentedWorkload>();

    KernelSpec rd;
    rd.codePc = 0x70000;
    rd.computeOps = 150;
    rd.mulEvery = 12;
    rd.residentLoads = 1;
    rd.burstEvery = 65;
    rd.interLoadOps = 200;
    rd.burstStreamLoads = 2;
    rd.coldStreamFootprint = 192 * kKiB;
    rd.phase = ParserPhases::kReadDictionary;
    addKernel(*w, iterationsFor(ops * 3 / 10, rd), rd, seed);

    KernelSpec init;
    init.codePc = 0x74000;
    init.computeOps = 52;
    init.mulEvery = 4;
    init.residentLoads = 1;
    init.burstEvery = 1080;
    init.burstRandomLoads = 1;
    init.coldRandomFootprint = 32 * kKiB;
    init.phase = ParserPhases::kInitRandtable;
    addKernel(*w, iterationsFor(ops / 10, init), init, seed + 1);

    KernelSpec batch;
    batch.codePc = 0x78000;
    batch.computeOps = 280;
    batch.mulEvery = 9;
    batch.residentLoads = 2;
    batch.burstEvery = 33;
    batch.interLoadOps = 240;
    batch.burstRandomLoads = 2;
    batch.coldRandomFootprint = 384 * kKiB;
    batch.phase = ParserPhases::kBatchProcess;
    addKernel(*w, iterationsFor(ops * 6 / 10, batch),
              batch, seed + 2);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeTwolf(uint64_t ops, uint64_t seed)
{
    // Place-and-route: working set between the LLC sizes — misses on
    // the 256 KiB devices, largely resident in Alcatel's 1 MiB.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x80000;
    k.computeOps = 130;
    k.mulEvery = 7;
    k.residentLoads = 1;
    k.burstEvery = 97;
    k.burstRandomLoads = 1;
    k.coldRandomFootprint = 20 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeVortex(uint64_t ops, uint64_t seed)
{
    // Object database: sequential segment scans plus dependent object
    // dereferences into a 1.5 MiB heap.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0x90000;
    k.computeOps = 120;
    k.mulEvery = 9;
    k.residentLoads = 1;
    k.burstEvery = 207;
    k.burstStreamLoads = 1;
    k.interLoadOps = 200;
    k.coldStreamFootprint = 256 * kKiB;
    k.burstRandomLoads = 1;
    k.coldRandomFootprint = 48 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

std::unique_ptr<SegmentedWorkload>
makeVpr(uint64_t ops, uint64_t seed)
{
    // FPGA routing: compute-bound; the routing grid slightly exceeds a
    // 256 KiB LLC so misses are rare everywhere and rarer on Alcatel.
    auto w = std::make_unique<SegmentedWorkload>();
    KernelSpec k;
    k.codePc = 0xA0000;
    k.computeOps = 180;
    k.mulEvery = 6;
    k.fpEvery = 9;
    k.residentLoads = 2;
    k.burstEvery = 310;
    k.burstRandomLoads = 1;
    k.coldRandomFootprint = 20 * kKiB;
    addKernel(*w, iterationsFor(ops, k), k, seed);
    return w;
}

} // namespace

const std::vector<SpecInfo> &
specSuite()
{
    static const std::vector<SpecInfo> suite = {
        {"ammp", "FP compute with periodic dependent neighbour gathers"},
        {"bzip2", "compute with prefetchable block-move bursts (MLP)"},
        {"crafty", "branchy compute, sparse probes into a 768 KiB table"},
        {"equake", "sparse-matrix FP: independent gathers + streaming"},
        {"gzip", "resident sliding window, sequential input bursts"},
        {"mcf", "bursts of pointer chasing over 8 MiB, no MLP"},
        {"parser", "3-phase: dictionary load / table init / batch parse"},
        {"twolf", "working set between 256 KiB and 1 MiB"},
        {"vortex", "object-database scans and dependent dereferences"},
        {"vpr", "compute-bound, grid slightly exceeding 256 KiB"},
    };
    return suite;
}

std::vector<std::string>
specNames()
{
    std::vector<std::string> names;
    names.reserve(specSuite().size());
    for (const auto &info : specSuite())
        names.push_back(info.name);
    return names;
}

std::vector<std::string>
ParserPhases::names()
{
    return {"read_dictionary", "init_randtable", "batch_process"};
}

std::unique_ptr<SegmentedWorkload>
makeSpec(std::string_view name, uint64_t scale_ops, uint64_t seed)
{
    if (name == "ammp")
        return makeAmmp(scale_ops, seed);
    if (name == "bzip2")
        return makeBzip2(scale_ops, seed);
    if (name == "crafty")
        return makeCrafty(scale_ops, seed);
    if (name == "equake")
        return makeEquake(scale_ops, seed);
    if (name == "gzip")
        return makeGzip(scale_ops, seed);
    if (name == "mcf")
        return makeMcf(scale_ops, seed);
    if (name == "parser")
        return makeParser(scale_ops, seed);
    if (name == "twolf")
        return makeTwolf(scale_ops, seed);
    if (name == "vortex")
        return makeVortex(scale_ops, seed);
    if (name == "vpr")
        return makeVpr(scale_ops, seed);
    return nullptr;
}

} // namespace emprof::workloads
