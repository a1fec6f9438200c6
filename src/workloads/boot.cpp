#include "workloads/boot.hpp"

#include "dsp/rng.hpp"

namespace emprof::workloads {

namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * 1024;

/** One boot phase recipe. */
struct PhaseRecipe
{
    const char *name;

    /** Share of the total op budget. */
    double share;

    Addr codePc;
    uint32_t computeOps;
    uint32_t streamLoads;
    uint64_t streamFootprint;
    uint32_t randomLoads;
    uint64_t randomFootprint;
    bool dependent;
};

const PhaseRecipe kPhases[] = {
    // ROM stub: tiny loop, no memory traffic.
    {"rom_stub", 0.05, 0x1000, 48, 0, 0, 0, 0, true},
    // Bootloader copies the kernel image: pure streaming burst.
    {"image_copy", 0.18, 0x2000, 10, 4, 12 * kMiB, 0, 0, false},
    // Decompression: stream + window reuse.
    {"decompress", 0.20, 0x3000, 36, 2, 6 * kMiB, 1, 256 * kKiB, true},
    // Kernel init: pointer-heavy structure setup.
    {"kernel_init", 0.22, 0x4000, 40, 0, 0, 2, 3 * kMiB, true},
    // Driver probe: bursty mixed access.
    {"driver_probe", 0.15, 0x5000, 56, 1, 1 * kMiB, 1, 1 * kMiB, true},
    // Service startup: mostly compute, occasional touches.
    {"services", 0.20, 0x6000, 88, 0, 0, 1, 384 * kKiB, true},
};

} // namespace

std::vector<std::string>
bootPhaseNames()
{
    std::vector<std::string> names;
    for (const auto &phase : kPhases)
        names.emplace_back(phase.name);
    return names;
}

std::unique_ptr<SegmentedWorkload>
makeBoot(const BootConfig &config)
{
    auto w = std::make_unique<SegmentedWorkload>();
    dsp::Rng rng(config.seed);

    uint8_t phase_tag = 0;
    for (const auto &recipe : kPhases) {
        const double jitter =
            1.0 + config.jitter * (2.0 * rng.uniform() - 1.0);
        const uint64_t ops = static_cast<uint64_t>(
            static_cast<double>(config.scaleOps) * recipe.share * jitter);

        const uint64_t uses = recipe.dependent ? recipe.randomLoads : 0;
        const uint64_t per_iter = recipe.computeOps + recipe.streamLoads +
                                  recipe.randomLoads + uses + 1;
        const uint64_t iterations = ops / per_iter + 1;

        auto stream = std::make_shared<StreamAddresses>(
            0x4000'0000 + static_cast<Addr>(phase_tag) * 0x100'0000,
            recipe.streamFootprint ? recipe.streamFootprint : 64);
        auto random = std::make_shared<RandomAddresses>(
            0x8000'0000 + static_cast<Addr>(phase_tag) * 0x100'0000,
            recipe.randomFootprint ? recipe.randomFootprint : 64,
            config.seed ^ (phase_tag * 0x9E37ull));

        const PhaseRecipe r = recipe;
        const uint8_t tag = phase_tag;
        w->addSegment(
            iterations,
            [r, tag, stream, random](std::vector<MicroOp> &out, uint64_t) {
                Addr pc = emitCompute(out, r.codePc, r.computeOps, tag,
                                      /*mul_every=*/7);
                for (uint32_t s = 0; s < r.streamLoads; ++s)
                    pc = emitIndependentLoad(out, pc, stream->next(), tag);
                for (uint32_t d = 0; d < r.randomLoads; ++d) {
                    pc = r.dependent
                             ? emitDependentLoad(out, pc, random->next(),
                                                 tag)
                             : emitIndependentLoad(out, pc, random->next(),
                                                   tag);
                }
                emitLoopBranch(out, pc, tag);
            });
        ++phase_tag;
    }
    return w;
}

} // namespace emprof::workloads
