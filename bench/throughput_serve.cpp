/**
 * @file
 * Served-ingest throughput: an open-loop Poisson load generator
 * against an in-process emprof serve::Server on a unix socket.
 *
 *   throughput_serve [--devices N] [--rate R] [--samples-per-capture S]
 *       [--client-threads K] [--server-threads T] [--disconnect-rate P]
 *       [--chaos] [--hostile-rate P] [--p99-gate X] [--json PATH]
 *       [--fail-on-reject] [--fail-on-lost] [--fail-on-silent-loss]
 *
 * Open-loop means the arrival schedule is drawn up front (exponential
 * inter-arrival gaps at R sessions/s, fixed seed) and never reacts to
 * completions: if the server falls behind, sessions start late and the
 * lateness lands in their measured latency — the honest fleet-scale
 * number, unlike closed-loop generators that politely wait.  Each
 * session is one full EMCAP upload (the same blob for every device)
 * pushed through the real client/EMFR/server/analysis path.
 *
 * --disconnect-rate P adds a second measured pass in which a fraction
 * P of sessions (chosen by a fixed-seed draw) have their connection
 * hard-closed once mid-upload and ride the resumable-push reconnect
 * path (DESIGN.md §15).  The pass reports resumed sessions, replayed
 * bytes, LOST sessions (dropped and never completed — the number the
 * resume path exists to drive to zero) and its p99 as a ratio of the
 * no-disconnect baseline.  --fail-on-lost turns any lost session into
 * exit 1, which CI uses as the resume gate.
 *
 * --chaos adds a third measured pass against an overload-hardened
 * server (idle timeout + rate floor, DESIGN.md §17) in which a
 * fraction P (--hostile-rate, default 0.2) of sessions are HOSTILE,
 * cycling three behaviours: a slow-loris trickle (must be shed with a
 * typed error), a mid-upload stall (typed shed, then resumed to
 * completion), and an RST herd member (hard reset, then reconnect and
 * resume).  A hostile session with neither a typed error nor a
 * completed resume is a SILENT LOSS — the number this pass exists to
 * drive to zero (--fail-on-silent-loss gates it).  Well-behaved
 * sessions run unchanged; their reports are compared bit-for-bit
 * against an unloaded reference push, and only their latencies feed
 * the chaos p99, which --p99-gate X bounds to X times the baseline
 * p99 (exit 1 past it).
 *
 * Reported: sessions/s, p50/p99 session latency (scheduled arrival →
 * Report in hand), aggregate analysis throughput in Msamples/s, and
 * the rejected-session count, with the server's own counters.  The
 * clean baseline runs five times, each against a fresh server on the
 * same arrival schedule: its latencies and Msamples/s are medians with
 * _q1/_q3 quartiles beside them (one pass read p50 28 ms, another 2 ms
 * minutes later on the same code), its rejected count is the worst
 * pass's, and the disconnect and chaos ratios divide by the median
 * p99.  The
 * JSON document (harness.hpp's emitter) goes to stdout and to a file
 * (default BENCH_serve.json); --fail-on-reject turns any rejected
 * session into exit 1, which CI uses as the serve-bench gate.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dsp/rng.hpp"
#include "dsp/series_ops.hpp"
#include "dsp/types.hpp"
#include "harness.hpp"
#include "../tests/serve/hostile_client.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

namespace {

using Clock = std::chrono::steady_clock;

/** Render the capture once; every device pushes the same bytes. */
std::vector<uint8_t>
captureBlob(std::size_t samples, std::string *error)
{
    const std::string path = "/tmp/emprof_bench_serve_" +
                             std::to_string(::getpid()) + ".emcap";
    store::WriterOptions opt;
    opt.sampleRateHz = 40e6;
    opt.clockHz = 1e9;
    opt.deviceName = "bench";
    if (!store::writeCapture(path, bench::syntheticCapture(samples), opt,
                             nullptr, error))
        return {};
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    ::unlink(path.c_str());
    if (blob.empty() && error != nullptr)
        *error = "could not read back " + path;
    return blob;
}

/** One measured open-loop pass against a fresh server. */
struct PassResult
{
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t dropped = 0; ///< sessions given an injected drop
    std::size_t lost = 0;    ///< dropped sessions that never finished
    uint64_t resumes = 0;
    uint64_t replayedBytes = 0;
    double wallS = 0.0;
    double p50Ms = 0.0; ///< well-behaved sessions only
    double p99Ms = 0.0;
    serve::ServerStats stats;

    // ---- chaos pass only ----
    std::size_t hostile = 0;       ///< sessions run hostile
    std::size_t hostileTyped = 0;  ///< got a typed Error frame
    std::size_t hostileResumed = 0; ///< completed via resume
    std::size_t hostileSilent = 0; ///< neither: a silent loss
    std::size_t reportMismatches = 0; ///< well-behaved not bit-exact
};

struct PassSetup
{
    const std::vector<uint8_t> *blob = nullptr;
    std::size_t devices = 0;
    std::size_t clientThreads = 0;
    std::size_t serverThreads = 0;
    const std::vector<double> *arrivalS = nullptr;
    double disconnectRate = 0.0; ///< fraction given one mid-upload drop
    /// Chaos pass: fraction of sessions run hostile against an
    /// overload-hardened server config (0 = plain pass), and the
    /// reference report text every well-behaved session must match.
    double hostileRate = 0.0;
    const std::string *referenceReport = nullptr;
};

/** Reconnect to a shed/reset hostile session and finish its upload
 *  from wherever the server's durable offset stands (a park that
 *  raced the reconnect degrades to Fresh-from-zero — still a
 *  completion, just a full replay). */
bool
resumeHostileToCompletion(const serve::Endpoint &ep,
                          const std::vector<uint8_t> &blob,
                          const serve::SessionId &id)
{
    serve::Client client;
    if (!client.connect(ep))
        return false;
    serve::OpenRequest open{};
    open.flags = serve::kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = serve::kResumeQuery;
    serve::SessionId echoed{};
    uint64_t offset = 0;
    serve::SessionState state = serve::SessionState::Fresh;
    if (!client.openSession(open, echoed, offset, state))
        return false;
    if (state == serve::SessionState::Complete)
        return client.finish().ok;
    if (offset > blob.size())
        return false;
    if (!client.sendData(blob.data() + offset, blob.size() - offset))
        return false;
    return client.finish().ok;
}

bool
runPass(const PassSetup &setup, const char *label, PassResult &out,
        std::string *error)
{
    const std::size_t devices = setup.devices;
    const std::string sock = "/tmp/emprof_bench_serve_" +
                             std::to_string(::getpid()) + "_" + label +
                             ".sock";

    serve::ServerConfig config;
    config.unixPath = sock;
    config.threads = setup.serverThreads;
    config.maxSessions = devices; // open-loop: never reply Busy
    if (setup.hostileRate > 0.0) {
        // The hardened config under test: hostile holders are shed
        // fast enough that well-behaved neighbours barely notice.
        config.idleTimeoutSeconds = 0.5;
        config.minRateBytesPerSec = 4096;
        config.minRateWindowSeconds = 0.5;
        config.sessionDeadlineSeconds = 60;
    }
    serve::Server server(std::move(config));
    if (!server.start(error))
        return false;

    // Which sessions lose their connection, drawn once up front with a
    // fixed seed so a run is reproducible.
    std::vector<uint8_t> drop(devices, 0);
    if (setup.disconnectRate > 0.0) {
        dsp::Rng rng(0xd15c);
        for (std::size_t i = 0; i < devices; ++i)
            drop[i] = rng.chance(setup.disconnectRate) ? 1 : 0;
    }

    // Which sessions misbehave (and how): a fixed-seed draw, cycling
    // the three hostile personalities.  0 = well-behaved.
    std::vector<uint8_t> hostile(devices, 0);
    if (setup.hostileRate > 0.0) {
        dsp::Rng rng(0xc4a0);
        std::size_t kind = 0;
        for (std::size_t i = 0; i < devices; ++i)
            if (rng.chance(setup.hostileRate))
                hostile[i] = static_cast<uint8_t>(1 + kind++ % 3);
    }

    std::vector<double> latency_ms(devices, 0.0);
    std::vector<uint8_t> ok(devices, 0);
    std::atomic<std::size_t> next{0};
    std::atomic<uint64_t> resumes{0};
    std::atomic<uint64_t> replayed{0};
    std::atomic<std::size_t> hostile_typed{0};
    std::atomic<std::size_t> hostile_resumed{0};
    std::atomic<std::size_t> hostile_silent{0};
    std::atomic<std::size_t> mismatches{0};
    const Clock::time_point start = Clock::now();

    auto worker = [&] {
        serve::Endpoint ep;
        ep.tcp = false;
        ep.unixPath = sock;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= devices)
                return;
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                (*setup.arrivalS)[i]));
            std::this_thread::sleep_until(due);
            if (hostile[i] != 0) {
                // A hostile session is accounted for when the server
                // either spoke a typed error or let it finish via
                // resume; anything else is a silent loss.
                serve::StallOptions stall;
                stall.giveUpAfterMs = 10000;
                if (hostile[i] == 1) { // slow-loris trickle
                    stall.trickleBytes = 64;
                    stall.trickleIntervalMs = 50;
                }
                else if (hostile[i] == 2) { // mid-upload stall
                    stall.headBytes =
                        1 + (i * 7919) % setup.blob->size();
                }
                else { // RST herd member
                    stall.headBytes =
                        1 + (i * 104729) % setup.blob->size();
                    stall.giveUpAfterMs = 200;
                    stall.resetOnExit = true;
                }
                const serve::HostileOutcome outcome =
                    serve::runHostileSession(ep, setup.blob->data(),
                                             setup.blob->size(),
                                             stall);
                bool accounted = false;
                if (outcome.typedError) {
                    hostile_typed.fetch_add(1);
                    accounted = true;
                }
                if (outcome.opened && hostile[i] != 1 &&
                    resumeHostileToCompletion(ep, *setup.blob,
                                              outcome.id)) {
                    hostile_resumed.fetch_add(1);
                    accounted = true;
                }
                if (!accounted)
                    hostile_silent.fetch_add(1);
                ok[i] = accounted ? 1 : 0;
                continue;
            }
            serve::Client client;
            serve::PushOptions options;
            // Small enough for several Data frames per session, so an
            // injected drop can land genuinely mid-upload.
            options.uploadChunkBytes = 16 * 1024;
            options.maxAttempts = 5;
            // The tool default (50 ms base) is sized for flaky WAN
            // links; against a local socket it would dominate the
            // dropped sessions' latency and measure the backoff
            // instead of the resume path.
            options.backoffBaseMs = 8;
            options.backoffMaxMs = 200;
            options.jitterSeed = 0x9e3779b9u + i;
            if (drop[i])
                options.simulateDropAfterBytes =
                    1 + (i * 7919) % setup.blob->size();
            const serve::PushResult result = client.pushResumable(
                ep, setup.blob->data(), setup.blob->size(), options);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - due)
                    .count();
            latency_ms[i] = ms;
            ok[i] = result.ok ? 1 : 0;
            resumes.fetch_add(result.resumes);
            replayed.fetch_add(result.replayedBytes);
            if (result.ok && setup.referenceReport != nullptr &&
                result.report.reportText != *setup.referenceReport)
                mismatches.fetch_add(1);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(setup.clientThreads);
    for (std::size_t i = 0; i < setup.clientThreads; ++i)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
    out.wallS =
        std::chrono::duration<double>(Clock::now() - start).count();

    server.stop();
    out.stats = server.stats();

    std::vector<double> sorted;
    sorted.reserve(devices);
    for (std::size_t i = 0; i < devices; ++i) {
        if (drop[i])
            ++out.dropped;
        if (hostile[i] != 0) {
            // Hostile sessions never feed the latency distribution:
            // the p99 under chaos is the well-behaved experience.
            ++out.hostile;
            continue;
        }
        if (ok[i]) {
            ++out.completed;
            sorted.push_back(latency_ms[i]);
        } else if (drop[i]) {
            ++out.lost;
        }
    }
    std::sort(sorted.begin(), sorted.end());
    out.rejected = devices - out.hostile - out.completed;
    out.resumes = resumes.load();
    out.replayedBytes = replayed.load();
    out.hostileTyped = hostile_typed.load();
    out.hostileResumed = hostile_resumed.load();
    out.hostileSilent = hostile_silent.load();
    out.reportMismatches = mismatches.load();
    out.p50Ms = dsp::percentileSorted(sorted, 50.0);
    out.p99Ms = dsp::percentileSorted(sorted, 99.0);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t devices = 1000;
    std::size_t samples = 65536;
    double rate = 400.0; // sessions per second
    double disconnect_rate = 0.0;
    std::size_t client_threads = 16;
    std::size_t server_threads = 0;
    bool fail_on_reject = false;
    bool fail_on_lost = false;
    bool chaos = false;
    double hostile_rate = 0.2;
    double p99_gate = 0.0; // 0 = no gate
    bool fail_on_silent_loss = false;

    std::string json = "BENCH_serve.json";
    if (!bench::parseArgs(argc, argv,
                          {{"--devices", devices},
                           {"--rate", rate},
                           {"--samples-per-capture", samples},
                           {"--client-threads", client_threads},
                           {"--server-threads", server_threads},
                           {"--disconnect-rate", disconnect_rate},
                           {"--chaos", chaos},
                           {"--hostile-rate", hostile_rate},
                           {"--p99-gate", p99_gate},
                           {"--fail-on-reject", fail_on_reject},
                           {"--fail-on-lost", fail_on_lost},
                           {"--fail-on-silent-loss", fail_on_silent_loss},
                           {"--json", json}}))
        return 2;
    if (devices == 0 || rate <= 0.0 || client_threads == 0 ||
        disconnect_rate < 0.0 || disconnect_rate > 1.0 ||
        hostile_rate < 0.0 || hostile_rate > 1.0) {
        std::fprintf(stderr, "nothing to do\n");
        return 2;
    }

    std::printf("synthesising %zu-sample capture blob...\n", samples);
    std::string error;
    const std::vector<uint8_t> blob = captureBlob(samples, &error);
    if (blob.empty()) {
        std::fprintf(stderr, "capture synthesis failed: %s\n",
                     error.c_str());
        return 1;
    }
    std::printf("blob: %zu bytes (%zu samples)\n", blob.size(),
                samples);

    // The arrival schedule, drawn before any session runs and never
    // adjusted afterwards: that independence is what makes the
    // generator open-loop.  Every pass replays the same schedule, so
    // their p99s differ only by what the pass injects.
    std::vector<double> arrival_s(devices);
    {
        dsp::Rng rng(0x5e7e);
        double t = 0.0;
        for (std::size_t i = 0; i < devices; ++i) {
            t += -std::log(1.0 - rng.uniform()) / rate;
            arrival_s[i] = t;
        }
    }
    std::printf("%zu sessions over %.2f s (Poisson, %.0f/s), "
                "%zu client threads\n",
                devices, arrival_s.back(), rate, client_threads);

    // One unloaded reference push captures the report text every
    // well-behaved chaos session must reproduce bit-for-bit — overload
    // shedding is allowed to slow analysis down, never to change it.
    std::string reference_report_text;
    if (chaos) {
        const std::string ref_sock = "/tmp/emprof_bench_serve_" +
                                     std::to_string(::getpid()) +
                                     "_ref.sock";
        serve::ServerConfig ref_config;
        ref_config.unixPath = ref_sock;
        serve::Server ref_server(std::move(ref_config));
        if (!ref_server.start(&error)) {
            std::fprintf(stderr, "reference server failed: %s\n",
                         error.c_str());
            return 1;
        }
        serve::Endpoint ep;
        ep.tcp = false;
        ep.unixPath = ref_sock;
        serve::Client client;
        const serve::PushResult ref = client.pushResumable(
            ep, blob.data(), blob.size(), serve::PushOptions{});
        ref_server.stop();
        if (!ref.ok) {
            std::fprintf(stderr, "reference push failed: %s\n",
                         ref.error.c_str());
            return 1;
        }
        reference_report_text = ref.report.reportText;
    }

    PassSetup setup;
    setup.blob = &blob;
    setup.devices = devices;
    setup.clientThreads = client_threads;
    setup.serverThreads = server_threads;
    setup.arrivalS = &arrival_s;

    const auto pass = [&](const char *label, PassResult &out) {
        const bool ran = runPass(setup, label, out, &error);
        if (!ran)
            std::fprintf(stderr, "%s pass failed: %s\n", label,
                         error.c_str());
        return ran;
    };
    constexpr int kBaselinePasses = 5;
    std::vector<PassResult> baselines(kBaselinePasses);
    for (PassResult &b : baselines)
        if (!pass("baseline", b))
            return 1;
    const auto spread = [&](auto metric) {
        std::vector<double> values;
        for (const PassResult &b : baselines)
            values.push_back(metric(b));
        return bench::quartiles(std::move(values));
    };
    const bench::Quartiles p50 =
        spread([](const PassResult &b) { return b.p50Ms; });
    const bench::Quartiles p99 =
        spread([](const PassResult &b) { return b.p99Ms; });
    const bench::Quartiles msamples = spread([&](const PassResult &b) {
        return static_cast<double>(b.completed) *
               static_cast<double>(samples) / b.wallS / 1e6;
    });
    const bench::Quartiles wall =
        spread([](const PassResult &b) { return b.wallS; });
    // The gates and counts read the worst pass.
    const PassResult &baseline = *std::max_element(
        baselines.begin(), baselines.end(),
        [](const PassResult &a, const PassResult &b) {
            return a.rejected < b.rejected;
        });

    PassResult drops;
    const bool ran_drops = disconnect_rate > 0.0;
    if (ran_drops) {
        std::printf("disconnect pass: dropping ~%.0f%% of sessions "
                    "once mid-upload...\n",
                    disconnect_rate * 100.0);
        setup.disconnectRate = disconnect_rate;
        if (!pass("disconnect", drops))
            return 1;
    }

    PassResult havoc;
    if (chaos) {
        std::printf("chaos pass: ~%.0f%% hostile sessions "
                    "(loris / stall / RST herd) against the hardened "
                    "config...\n",
                    hostile_rate * 100.0);
        setup.disconnectRate = 0.0;
        setup.hostileRate = hostile_rate;
        setup.referenceReport = &reference_report_text;
        // A hostile session pins its generator thread for the full
        // shed latency (up to a second against the hardened config).
        // The open-loop contract says the generator must never be the
        // bottleneck, so give the chaos pass one extra thread per
        // expected hostile session: a starved launch queue would bill
        // client-side waiting to the server's p99.
        setup.clientThreads =
            client_threads +
            static_cast<std::size_t>(
                std::ceil(static_cast<double>(devices) * hostile_rate));
        if (!pass("chaos", havoc))
            return 1;
    }

    const double sessions_per_s =
        static_cast<double>(baseline.completed) / wall.median;
    const double p99_ratio =
        ran_drops && p99.median > 0.0 ? drops.p99Ms / p99.median : 0.0;
    const double chaos_p99_ratio =
        chaos && p99.median > 0.0 ? havoc.p99Ms / p99.median : 0.0;

    bench::Json doc = bench::document("throughput_serve");
    doc.add("devices", devices)
        .add("samples_per_capture", samples)
        .add("offered_rate_per_s", rate)
        .add("completed", baseline.completed)
        .add("rejected", baseline.rejected)
        .add("server_sessions_completed", baseline.stats.sessionsCompleted)
        .add("server_sessions_rejected", baseline.stats.sessionsRejected)
        .add("baseline_passes", kBaselinePasses)
        .add("wall_s", wall.median)
        .add("sessions_per_s", sessions_per_s)
        .add("msamples_per_s", msamples.median)
        .add("msamples_per_s_q1", msamples.q1)
        .add("msamples_per_s_q3", msamples.q3)
        .add("latency_p50_ms", p50.median)
        .add("latency_p50_ms_q1", p50.q1)
        .add("latency_p50_ms_q3", p50.q3)
        .add("latency_p99_ms", p99.median)
        .add("latency_p99_ms_q1", p99.q1)
        .add("latency_p99_ms_q3", p99.q3)
        .add("disconnect_rate", disconnect_rate)
        .add("dropped_sessions", drops.dropped)
        .add("lost_sessions", drops.lost)
        .add("resumed_sessions", drops.resumes)
        .add("replayed_bytes", drops.replayedBytes)
        .add("server_sessions_parked", drops.stats.sessionsParked)
        .add("server_sessions_resumed", drops.stats.sessionsResumed)
        .add("disconnect_latency_p50_ms", drops.p50Ms)
        .add("disconnect_latency_p99_ms", drops.p99Ms)
        .add("disconnect_p99_over_baseline", p99_ratio)
        .add("chaos_hostile_rate", chaos ? hostile_rate : 0.0)
        .add("chaos_hostile_sessions", havoc.hostile)
        .add("chaos_typed_errors", havoc.hostileTyped)
        .add("chaos_resumed_to_completion", havoc.hostileResumed)
        .add("chaos_silent_losses", havoc.hostileSilent)
        .add("chaos_report_mismatches", havoc.reportMismatches)
        .add("chaos_server_shed", havoc.stats.sessionsShed)
        .add("chaos_server_timed_out", havoc.stats.sessionsTimedOut)
        .add("chaos_server_retry_after", havoc.stats.retryAfterSent)
        .add("chaos_server_aborted", havoc.stats.sessionsAborted)
        .add("chaos_latency_p50_ms", havoc.p50Ms)
        .add("chaos_latency_p99_ms", havoc.p99Ms)
        .add("chaos_p99_over_baseline", chaos_p99_ratio);
    std::fputs(doc.text(true).c_str(), stdout);
    if (!bench::writeJson(json, doc))
        return 1;

    // The gates; each failure names what it saw.
    bool pass_gates = true;
    const auto gate = [&](bool failed, const std::string &why) {
        if (failed)
            std::fprintf(stderr, "FAIL: %s\n", why.c_str());
        pass_gates = pass_gates && !failed;
    };
    gate(fail_on_reject && baseline.rejected > 0,
         std::to_string(baseline.rejected) +
             " session(s) rejected under open-loop load");
    gate(fail_on_lost && drops.lost > 0,
         std::to_string(drops.lost) + " dropped session(s) never "
                                      "completed (resume path lost them)");
    gate(fail_on_silent_loss &&
             (havoc.hostileSilent > 0 || havoc.reportMismatches > 0),
         "chaos pass saw " + std::to_string(havoc.hostileSilent) +
             " silent loss(es) and " +
             std::to_string(havoc.reportMismatches) +
             " report mismatch(es); every hostile session must get a "
             "typed error or complete via resume, and every "
             "well-behaved report must match the unloaded reference");
    gate(p99_gate > 0.0 && chaos && chaos_p99_ratio > p99_gate,
         "chaos p99 is " + std::to_string(chaos_p99_ratio) +
             "x baseline (gate " + std::to_string(p99_gate) +
             "x); hostile neighbours are bleeding into the tail");
    return pass_gates ? 0 : 1;
}
