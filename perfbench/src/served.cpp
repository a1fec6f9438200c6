/**
 * @file
 * serve_small and serve_large_durable: first socket byte -> report
 * in hand, through serve::Server over a unix socket.
 *
 * A closed loop: each uploader thread holds one connection at a time
 * and starts its next upload when its report arrives, so the server
 * can never build a backlog and throughput is the sustainable rate.
 * The server pool and the uploaders each get half the machine.
 *
 *  - serve_small: 4 Ki-sample captures, no spool.  Per-session costs
 *    (accept, handshake, pump scheduling, reply, analysis set-up sized
 *    by the normalisation window) dominate.
 *  - serve_large_durable: 2 Mi-sample captures, longer than one
 *    analysis span, with the fsync'd result spool on; 10% of sessions
 *    (chosen by seed) are hard-dropped once mid-upload and resumed.
 *
 * The traced pass drives live sessions through Client's step calls
 * (a span per step), then replays every distinct capture in-process
 * through the serve layers: parseFrame -> EmcapStreamDecoder ->
 * analyzeChunkAuto -> ChunkStitcher -> toText -> encodeReportPayload
 * -> ResultSpool::append, and separately SessionPipeline feed/finish.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "profiler/batch_pipeline.hpp"
#include "profiler/report.hpp"
#include "profiler/stitch.hpp"
#include "serve/client.hpp"
#include "serve/emcap_stream.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/session_pipeline.hpp"
#include "serve/spool.hpp"
#include "store/emcap_format.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = emprof::serve;
namespace fs = std::filesystem;

const char *const kTitle = kWorkloads[1].title;
constexpr std::size_t kUploadChunk = 256 * 1024; ///< PushOptions default
constexpr double kDropFraction = 0.10;
constexpr std::size_t kSpoolRepeats = 8; ///< replayed appends per capture

constexpr uint64_t kReplayTrace = uint64_t{1} << 32;
constexpr uint64_t kPipelineTrace = uint64_t{2} << 32;
constexpr uint64_t kSpoolTrace = uint64_t{3} << 32;

struct Shape
{
    bool durable;        ///< result spool on, seeded drops
    int setupRepeats;    ///< fresh servers timed for setup_s
    std::size_t warmUps; ///< sessions per uploader before timing
};

constexpr Shape kSmall{false, 9, 4};
constexpr Shape kLarge{true, 5, 1};

struct Input
{
    std::vector<uint8_t> bytes;
    Capture capture;
    Reference ref;
};

struct Context
{
    const RunOptions &options;
    Shape shape;
    std::vector<Input> inputs;
};

/** What one session does, fixed by the seed and its ordinal. */
struct Plan
{
    std::size_t capture = 0;
    uint64_t dropAfter = 0; ///< hard-drop after this many bytes; 0 = no
    uint64_t jitterSeed = 1;
};

Plan
planSession(const Context &ctx, uint64_t ordinal, bool mayDrop)
{
    Plan plan;
    plan.capture = static_cast<std::size_t>(ordinal % ctx.inputs.size());
    Rng rng(mixSeed(ctx.options.seed ^ 0x5e55104e5e55104eull, ordinal));
    const uint64_t bytes = ctx.inputs[plan.capture].bytes.size();
    if (mayDrop && ctx.shape.durable && bytes > 1 &&
        rng.uniform() < kDropFraction)
        plan.dropAfter = 1 + rng.below(bytes - 1);
    plan.jitterSeed = rng.next() | 1;
    return plan;
}

bool
checkReport(const serve::DecodedReport &report, const Input &in,
            std::string &why)
{
    if (report.status != 0)
        why = "report status " + std::to_string(report.status);
    else if (report.totalSamples != in.capture.samples)
        why = "report covers " + std::to_string(report.totalSamples) +
              " samples";
    else if (report.reportText != in.ref.text)
        why = "report text differs from the reference";
    else if (report.events.size() != in.ref.events ||
             eventsDigest(report.events) != in.ref.digest)
        why = "events differ from the reference (" +
              std::to_string(report.events.size()) + " vs " +
              std::to_string(in.ref.events) + ")";
    else
        return true;
    return false;
}

struct Outcome
{
    double ms = 0;
    bool ok = false;
    std::string error;
};

/** One untraced session: the resumable push a device would make. */
Outcome
pushSession(const Context &ctx, const serve::Endpoint &endpoint,
            const Plan &plan)
{
    const Input &in = ctx.inputs[plan.capture];
    serve::PushOptions options;
    options.uploadChunkBytes = kUploadChunk;
    options.jitterSeed = plan.jitterSeed;
    options.simulateDropAfterBytes = plan.dropAfter;
    Outcome out;
    const int64_t t0 = SpanRecorder::now();
    serve::Client client;
    const serve::PushResult r = client.pushResumable(
        endpoint, in.bytes.data(), in.bytes.size(), options);
    out.ms = static_cast<double>(SpanRecorder::now() - t0) / 1e6;
    if (!r.ok)
        out.error = "push failed: " + r.error;
    else
        out.ok = checkReport(r.report, in, out.error);
    return out;
}

/**
 * One traced session through Client's step calls, a span per step.
 * A planned drop closes the socket like pushResumable's hook does,
 * backs off for the same jittered delay, and resumes by session id.
 */
Outcome
tracedSession(const Context &ctx, SpanRecorder &rec,
              const serve::Endpoint &endpoint, uint64_t ordinal,
              const Plan &plan)
{
    const Input &in = ctx.inputs[plan.capture];
    Outcome out;
    const int64_t t0 = SpanRecorder::now();
    ScopedSpan root(rec, "client.session", ordinal);
    const uint64_t rid = root.id();
    serve::Client client;
    std::string error;
    serve::SessionId id{};
    uint64_t offset = 0;
    serve::SessionState state = serve::SessionState::Fresh;

    const auto handshake = [&](const char *connectName,
                               const char *openName,
                               const serve::OpenRequest &request) {
        {
            ScopedSpan s(rec, connectName, ordinal, rid);
            if (!client.connect(endpoint, &error))
                return false;
        }
        ScopedSpan s(rec, openName, ordinal, rid);
        return client.openSession(request, id, offset, state, nullptr,
                                  &error);
    };
    const auto upload = [&](uint64_t stopAfter) {
        ScopedSpan s(rec, "client.upload", ordinal, rid);
        const std::size_t total = in.bytes.size();
        while (offset < total) {
            const std::size_t take = std::min<std::size_t>(
                kUploadChunk, total - static_cast<std::size_t>(offset));
            if (!client.sendData(in.bytes.data() + offset, take, &error))
                return false;
            offset += take;
            if (stopAfter != 0 && offset >= stopAfter)
                break;
        }
        return true;
    };

    bool ok = handshake("client.connect", "client.open",
                        serve::OpenRequest{}) &&
              upload(plan.dropAfter);
    if (ok && plan.dropAfter != 0) {
        client.close();
        {
            ScopedSpan s(rec, "client.backoff", ordinal, rid);
            Rng jitter(plan.jitterSeed);
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<int64_t>(50e3 * (0.5 + jitter.uniform()))));
        }
        serve::OpenRequest resume{};
        resume.flags = serve::kOpenResume;
        std::memcpy(resume.sessionId, id.data(), id.size());
        resume.resumeFrom = serve::kResumeQuery;
        ok = handshake("client.resume_connect", "client.resume", resume);
        if (ok && state == serve::SessionState::Complete) {
            ok = false;
            error = "resume answered Complete before Finish";
        }
        ok = ok && upload(0);
    }
    serve::PushResult fin;
    if (ok) {
        ScopedSpan s(rec, "client.finish", ordinal, rid);
        fin = client.finish();
        if (!fin.ok)
            error = fin.error;
    }
    root.end();
    out.ms = static_cast<double>(SpanRecorder::now() - t0) / 1e6;
    if (!ok || !fin.ok)
        out.error = "traced session failed: " + error;
    else
        out.ok = checkReport(fin.report, in, out.error);
    return out;
}

/** A server with the benchmark's settings, and its scratch. */
struct LiveServer
{
    std::unique_ptr<serve::Server> server;
    serve::Endpoint endpoint;
    std::string spoolDir;

    ~LiveServer() { stop(); }

    void
    stop()
    {
        if (server) {
            server->stop();
            server.reset();
        }
        if (!spoolDir.empty()) {
            std::error_code ignored;
            fs::remove_all(spoolDir, ignored);
        }
    }
};

bool
startServer(const Context &ctx, int serial, LiveServer &live,
            std::string &error)
{
    serve::ServerConfig config;
    config.unixPath = ctx.options.workdir + "/serve-" +
                      std::to_string(serial) + ".sock";
    config.threads = ctx.options.systemThreads;
    if (ctx.shape.durable) {
        live.spoolDir = ctx.options.workdir + "/spool-" +
                        std::to_string(serial);
        config.spoolDir = live.spoolDir;
    }
    live.endpoint.unixPath = config.unixPath;
    live.server = std::make_unique<serve::Server>(config);
    return live.server->start(&error);
}

/** Sessions one pass produced, merged over its uploaders. */
struct Pass
{
    std::vector<double> ms;
    std::vector<std::size_t> captureOf;
    std::vector<std::string> errors;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t okSamples = 0;
    uint64_t bytesOffered = 0;
    double wallS = 0;
    std::vector<double> rssMib; ///< per-window peaks
};

/**
 * Run the closed loop for @p seconds: every uploader starts sessions
 * until the deadline, then finishes the one in flight.  With a
 * recorder the sessions are traced; without one they are plain
 * pushes.  The calling thread samples peak RSS in 1 s windows.
 */
Pass
runPass(const Context &ctx, const serve::Endpoint &endpoint,
        double seconds, SpanRecorder *rec)
{
    const std::size_t uploaders = ctx.options.uploaders;
    std::vector<Pass> perUploader(uploaders);
    std::atomic<std::size_t> running{uploaders};
    const int64_t t0 = SpanRecorder::now();
    const int64_t until = t0 + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t u = 0; u < uploaders; ++u) {
        threads.emplace_back([&, u] {
            Pass &mine = perUploader[u];
            for (uint64_t k = 0; k == 0 || SpanRecorder::now() < until;
                 ++k) {
                const uint64_t ordinal = u + k * uploaders;
                const Plan plan = planSession(ctx, ordinal, true);
                const Outcome o =
                    rec != nullptr
                        ? tracedSession(ctx, *rec, endpoint, ordinal, plan)
                        : pushSession(ctx, endpoint, plan);
                const Input &in = ctx.inputs[plan.capture];
                ++mine.attempted;
                mine.ms.push_back(o.ms);
                mine.captureOf.push_back(plan.capture);
                mine.bytesOffered += in.bytes.size();
                if (o.ok) {
                    mine.okSamples += in.capture.samples;
                } else {
                    ++mine.failed;
                    if (mine.errors.size() < 4)
                        mine.errors.push_back(o.error);
                }
            }
            running.fetch_sub(1);
        });
    }
    Pass pass;
    while (running.load() > 0) {
        resetPeakRss();
        const int64_t windowEnd = SpanRecorder::now() + 1'000'000'000;
        while (running.load() > 0 && SpanRecorder::now() < windowEnd)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        pass.rssMib.push_back(peakRssMib());
    }
    for (auto &t : threads)
        t.join();
    pass.wallS = static_cast<double>(SpanRecorder::now() - t0) / 1e9;
    for (const Pass &p : perUploader) {
        pass.ms.insert(pass.ms.end(), p.ms.begin(), p.ms.end());
        pass.captureOf.insert(pass.captureOf.end(), p.captureOf.begin(),
                              p.captureOf.end());
        pass.errors.insert(pass.errors.end(), p.errors.begin(),
                           p.errors.end());
        pass.attempted += p.attempted;
        pass.failed += p.failed;
        pass.okSamples += p.okSamples;
        pass.bytesOffered += p.bytesOffered;
    }
    return pass;
}

void
absorb(RunResult &result, const Pass &pass)
{
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    for (const auto &e : pass.errors)
        if (result.errors.size() < 8)
            result.errors.push_back(e);
}

/** The warm-up sessions of every uploader, concurrently. */
void
warmUp(const Context &ctx, const serve::Endpoint &endpoint,
       RunResult &result)
{
    const std::size_t uploaders = ctx.options.uploaders;
    std::vector<std::vector<Outcome>> outcomes(uploaders);
    std::vector<std::thread> threads;
    for (std::size_t u = 0; u < uploaders; ++u)
        threads.emplace_back([&, u] {
            for (std::size_t k = 0; k < ctx.shape.warmUps; ++k)
                outcomes[u].push_back(pushSession(
                    ctx, endpoint,
                    planSession(ctx, u + k * uploaders, false)));
        });
    for (auto &t : threads)
        t.join();
    for (const auto &mine : outcomes)
        for (const auto &o : mine) {
            ++result.attempted;
            if (!o.ok)
                result.fail("warm-up: " + o.error);
        }
}

/** Per-capture costs of the in-process replay. */
struct ReplayTotals
{
    uint64_t frameBytes = 0;
    uint64_t decodedSamples = 0;
    uint64_t spanSamples = 0;
    uint64_t haloSamples = 0;
    uint64_t events = 0;
    uint64_t samples = 0;
    uint64_t reportBytes = 0;
    uint64_t pipelineSpans = 0;
    std::size_t captures = 0;
};

bool
replayCapture(const Context &ctx, SpanRecorder &rec, std::size_t c,
              serve::ResultSpool *spool, ReplayTotals &totals,
              std::string &error)
{
    const Input &in = ctx.inputs[c];
    std::vector<std::vector<uint8_t>> wire;
    for (std::size_t off = 0; off < in.bytes.size(); off += kUploadChunk) {
        wire.emplace_back();
        serve::appendFrame(wire.back(), serve::FrameType::Data,
                           in.bytes.data() + off,
                           std::min(kUploadChunk, in.bytes.size() - off));
        totals.frameBytes += wire.back().size();
    }

    const uint64_t trace = kReplayTrace + c;
    ScopedSpan root(rec, "replay.capture", trace);
    const uint64_t rid = root.id();
    std::vector<serve::Frame> frames(wire.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        ScopedSpan s(rec, "serve.frame_parse", trace, rid);
        if (serve::parseFrame(wire[i].data(), wire[i].size(), frames[i],
                              &error) !=
            static_cast<long>(wire[i].size()))
            return false;
    }
    serve::EmcapStreamDecoder decoder;
    std::vector<float> samples;
    for (const auto &f : frames) {
        ScopedSpan s(rec, "serve.emcap_decode", trace, rid);
        if (!decoder.feed(f.payload.data(), f.payload.size(), samples,
                          &error))
            return false;
    }
    if (!decoder.complete(&error))
        return false;
    totals.decodedSamples += samples.size();

    // SessionPipeline's span schedule: full spans while strictly more
    // than one span is buffered, then the final span.
    emprof::profiler::EmProfConfig config;
    config.sampleRateHz = decoder.info().sampleRateHz;
    if (decoder.info().clockHz > 0.0)
        config.clockHz = decoder.info().clockHz;
    const uint64_t total = samples.size();
    const uint64_t span = std::max<uint64_t>(
        emprof::store::kDefaultChunkSamples, 8 * config.normWindowSamples());
    std::vector<emprof::profiler::ChunkResult> chunks;
    uint64_t next = 0;
    while (next < total) {
        const bool last = total - next <= span;
        const uint64_t end = last ? total : next + span;
        ScopedSpan s(rec, "profiler.analyze", trace, rid);
        chunks.push_back(emprof::profiler::analyzeChunkAuto(
            samples.data(), 0, next, end, last, config));
        totals.spanSamples += end - next;
        totals.haloSamples += std::min<uint64_t>(next, config.haloSamples());
        next = end;
    }
    emprof::profiler::ProfileResult result;
    {
        ScopedSpan s(rec, "profiler.stitch", trace, rid);
        emprof::profiler::ChunkStitcher stitcher(config);
        for (const auto &chunk : chunks)
            stitcher.feed(chunk);
        result = stitcher.finalize(total);
    }
    std::string text;
    {
        ScopedSpan s(rec, "profiler.report_text", trace, rid);
        text = result.report.toText(kTitle);
    }
    std::vector<uint8_t> payload;
    {
        ScopedSpan s(rec, "serve.report_encode", trace, rid);
        payload = serve::encodeReportPayload(0, total, 1.0, result.events,
                                             text);
    }
    serve::SessionId id{};
    const auto appendOnce = [&](uint64_t spanTrace, uint64_t parent,
                                std::size_t rep) {
        id[0] = 1;
        std::memcpy(id.data() + 1, &c, sizeof(c));
        id[15] = static_cast<uint8_t>(rep);
        ScopedSpan s(rec, "serve.spool_append", spanTrace, parent);
        return spool->append(id, 0, payload, &error);
    };
    if (spool != nullptr && !appendOnce(trace, rid, 0))
        return false;
    root.end();
    if (spool != nullptr) {
        ScopedSpan more(rec, "replay.spool", kSpoolTrace + c);
        for (std::size_t rep = 1; rep < kSpoolRepeats; ++rep)
            if (!appendOnce(kSpoolTrace + c, more.id(), rep))
                return false;
    }
    if (text != in.ref.text || result.events.size() != in.ref.events ||
        eventsDigest(result.events) != in.ref.digest) {
        error = "replayed report differs from the reference";
        return false;
    }

    // The same bytes through the server's own per-session pipeline.
    const uint64_t ptrace = kPipelineTrace + c;
    ScopedSpan proot(rec, "replay.pipeline", ptrace);
    serve::SessionPipeline pipeline(emprof::profiler::EmProfConfig{});
    for (const auto &f : frames) {
        ScopedSpan s(rec, "serve.pipeline_feed", ptrace, proot.id());
        if (!pipeline.feed(f.payload.data(), f.payload.size(), &error))
            return false;
    }
    emprof::profiler::ProfileResult piped;
    {
        ScopedSpan s(rec, "serve.pipeline_finish", ptrace, proot.id());
        if (!pipeline.finish(piped, &error))
            return false;
    }
    proot.end();
    if (piped.report.toText(kTitle) != in.ref.text ||
        eventsDigest(piped.events) != in.ref.digest) {
        error = "SessionPipeline report differs from the reference";
        return false;
    }

    totals.pipelineSpans += pipeline.spansAnalyzed();
    totals.events += result.events.size();
    totals.samples += total;
    totals.reportBytes += payload.size();
    ++totals.captures;
    return true;
}

double
statDelta(uint64_t after, uint64_t before)
{
    return static_cast<double>(after - before);
}

} // namespace

RunResult
runServed(const RunOptions &options, const InputSet &set, bool large)
{
    RunResult result;
    Context ctx{options, large ? kLarge : kSmall, {}};
    ctx.inputs.resize(set.inputs.size());
    for (std::size_t c = 0; c < set.inputs.size(); ++c) {
        Input &in = ctx.inputs[c];
        in.capture = set.inputs[c].capture;
        in.ref = set.inputs[c].ref;
        std::string error;
        if (!readFileBytes(set.inputs[c].path, in.bytes, &error)) {
            result.ok = false;
            result.errors.push_back(error);
            return result;
        }
    }

    result.meta["served"] =
        std::string("{\"spool\":") + (ctx.shape.durable ? "true" : "false") +
        ",\"drop_fraction\":" +
        std::to_string(ctx.shape.durable ? kDropFraction : 0.0) +
        ",\"upload_frame_bytes\":" + std::to_string(kUploadChunk) + "}";

    if (!options.trace) {
        // Set-up: server start (bind, I/O thread, pool, spool open)
        // until every uploader has its warm-up report; repeated on a
        // fresh server, median reported.  The last server stays up.
        resetPeakRss();
        std::vector<double> setup;
        LiveServer live;
        for (int k = 0; k < ctx.shape.setupRepeats; ++k) {
            live.stop();
            const int64_t t0 = SpanRecorder::now();
            std::string error;
            if (!startServer(ctx, k, live, error)) {
                result.ok = false;
                result.errors.push_back("server start: " + error);
                return result;
            }
            warmUp(ctx, live.endpoint, result);
            setup.push_back(
                static_cast<double>(SpanRecorder::now() - t0) / 1e9);
        }
        result.add("setup_s", percentile(setup, 0.5), "s", setup.size());

        const Pass pass =
            runPass(ctx, live.endpoint, options.seconds, nullptr);
        live.stop();
        absorb(result, pass);
        result.add("analyze_msamples_per_s",
                   static_cast<double>(pass.okSamples) / pass.wallS / 1e6,
                   "Msamples/s", pass.ms.size());
        addLatencyMetrics(result, pass.ms);
        result.add("peak_rss_mib", percentile(pass.rssMib, 0.5), "MiB",
                   pass.rssMib.size());
        result.meta["operations"] = std::to_string(pass.ms.size());
        return result;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half on a fresh server, then the in-process replay.
    Pass plain, traced;
    serve::ServerStats before, after;
    SpanRecorder rec;
    {
        LiveServer live;
        std::string error;
        if (!startServer(ctx, 0, live, error)) {
            result.ok = false;
            result.errors.push_back("server start: " + error);
            return result;
        }
        warmUp(ctx, live.endpoint, result);
        plain = runPass(ctx, live.endpoint, options.seconds / 2, nullptr);
    }
    {
        LiveServer live;
        std::string error;
        if (!startServer(ctx, 1, live, error)) {
            result.ok = false;
            result.errors.push_back("server start: " + error);
            return result;
        }
        warmUp(ctx, live.endpoint, result);
        before = live.server->stats();
        traced = runPass(ctx, live.endpoint, options.seconds / 2, &rec);
        after = live.server->stats();
    }
    absorb(result, plain);
    absorb(result, traced);

    ReplayTotals totals;
    {
        serve::ResultSpool spool;
        const std::string spoolDir = options.workdir + "/replay-spool";
        std::string error;
        serve::ResultSpool::Options spoolOptions;
        spoolOptions.dir = spoolDir;
        if (ctx.shape.durable && !spool.open(spoolOptions, &error)) {
            result.ok = false;
            result.errors.push_back("replay spool: " + error);
            return result;
        }
        for (std::size_t c = 0; c < ctx.inputs.size(); ++c) {
            ++result.attempted;
            if (!replayCapture(ctx, rec, c,
                               ctx.shape.durable ? &spool : nullptr,
                               totals, error))
                result.fail("replay of capture " + std::to_string(c) +
                            ": " + error);
        }
        std::error_code ignored;
        fs::remove_all(spoolDir, ignored);
    }

    const std::vector<Span> spans = rec.spans();
    const std::vector<int64_t> self = selfTimes(spans);
    std::map<std::string, std::vector<double>> durMs;
    std::map<uint64_t, double> uploadMsBySession;
    for (const Span &s : spans) {
        const double ms = static_cast<double>(s.duration()) / 1e6;
        durMs[s.name].push_back(ms);
        if (std::strcmp(s.name, "client.upload") == 0)
            uploadMsBySession[s.trace] += ms;
    }
    std::vector<double> sessionUploadMs;
    for (const auto &[session, ms] : uploadMsBySession)
        sessionUploadMs.push_back(ms);

    // The ledger: live sessions are the end-to-end time; each session
    // is charged its capture's replayed layer costs.
    std::vector<std::map<std::string, double>> perCapture(
        ctx.inputs.size());
    for (std::size_t c = 0; c < ctx.inputs.size(); ++c)
        perCapture[c] = layerSelfNs(spans, self, [c](const Span &s) {
            return s.trace == kReplayTrace + c;
        });
    Ledger ledger;
    ledger.endToEndNs = sum(durMs["client.session"]) * 1e6;
    for (std::size_t k = 0; k < traced.captureOf.size(); ++k)
        for (const auto &[name, ns] : perCapture[traced.captureOf[k]])
            ledger.callNs[name] += ns;
    double layerNs = 0;
    for (const auto &[name, ns] : ledger.callNs)
        layerNs += ns;
    const double sessions = static_cast<double>(traced.ms.size());

    const auto total = [&](const char *name) {
        return sum(durMs[name]) * 1e6;
    };
    const double captures = static_cast<double>(totals.captures);

    result.add("store.bytes_per_sample",
               static_cast<double>(set.encodedBytes) /
                   static_cast<double>(set.inputs.size() *
                                       set.inputs[0].capture.samples),
               "B", set.inputs.size());
    result.add("serve.emcap_decode_ns_per_sample",
               ratio(total("serve.emcap_decode"),
                   static_cast<double>(totals.decodedSamples)),
               "ns", durMs["serve.emcap_decode"].size());
    result.add("profiler.analyze_ns_per_sample",
               ratio(total("profiler.analyze"),
                   static_cast<double>(totals.spanSamples)),
               "ns", durMs["profiler.analyze"].size());
    result.add("profiler.analyze_ms_per_call",
               mean(durMs["profiler.analyze"]), "ms",
               durMs["profiler.analyze"].size());
    result.add("profiler.stitch_ms", mean(durMs["profiler.stitch"]), "ms",
               durMs["profiler.stitch"].size());
    result.add("profiler.halo_fraction",
               ratio(static_cast<double>(totals.haloSamples),
                   static_cast<double>(totals.spanSamples)),
               "ratio", totals.captures);
    result.add("profiler.report_text_ms",
               mean(durMs["profiler.report_text"]), "ms",
               durMs["profiler.report_text"].size());
    result.add("profiler.events_per_msample",
               ratio(static_cast<double>(totals.events) * 1e6,
                   static_cast<double>(totals.samples)),
               "count", totals.captures);
    result.add("serve.connect_ms", mean(durMs["client.connect"]), "ms",
               durMs["client.connect"].size());
    result.add("serve.open_ms", mean(durMs["client.open"]), "ms",
               durMs["client.open"].size());
    result.add("serve.finish_ms", mean(durMs["client.finish"]), "ms",
               durMs["client.finish"].size());
    result.add("serve.residual_ms",
               ratio(ledger.endToEndNs - layerNs, sessions) / 1e6, "ms",
               traced.ms.size());
    result.add("serve.upload_ms", mean(sessionUploadMs), "ms",
               sessionUploadMs.size());
    result.add("serve.frame_parse_ns_per_byte",
               ratio(total("serve.frame_parse"),
                   static_cast<double>(totals.frameBytes)),
               "ns", durMs["serve.frame_parse"].size());
    result.add("serve.pipeline_feed_ms",
               ratio(sum(durMs["serve.pipeline_feed"]), captures), "ms",
               totals.captures);
    result.add("serve.pipeline_finish_ms",
               mean(durMs["serve.pipeline_finish"]), "ms",
               durMs["serve.pipeline_finish"].size());
    result.add("serve.spans_per_session",
               ratio(static_cast<double>(totals.pipelineSpans), captures),
               "count", totals.captures);
    result.add("serve.report_encode_ms",
               mean(durMs["serve.report_encode"]), "ms",
               durMs["serve.report_encode"].size());
    result.add("serve.report_bytes",
               ratio(static_cast<double>(totals.reportBytes), captures), "B",
               totals.captures);
    const auto &appends = durMs["serve.spool_append"];
    result.add("serve.spool_append_ms_p50", percentile(appends, 0.5), "ms",
               appends.size(),
               static_cast<long>(samplesBeyond(appends.size(), 0.5)));
    result.add("serve.spool_append_ms_p99", percentile(appends, 0.99),
               "ms", appends.size(),
               static_cast<long>(samplesBeyond(appends.size(), 0.99)));
    result.add("serve.resume_ms", mean(durMs["client.resume"]), "ms",
               durMs["client.resume"].size());
    result.add("serve.sessions_parked",
               statDelta(after.sessionsParked, before.sessionsParked),
               "count", 1);
    result.add("serve.sessions_resumed",
               statDelta(after.sessionsResumed, before.sessionsResumed),
               "count", 1);
    result.add("serve.ingested_per_capture_byte",
               ratio(statDelta(after.bytesIngested, before.bytesIngested),
                   static_cast<double>(traced.bytesOffered)),
               "ratio", traced.ms.size());
    const double accepted =
        statDelta(after.sessionsAccepted, before.sessionsAccepted);
    const double completed =
        statDelta(after.sessionsCompleted, before.sessionsCompleted);
    result.add("serve.sessions_accepted", accepted, "count", 1);
    result.add("serve.sessions_completed", completed, "count", 1);
    result.add("serve.sessions_rejected",
               statDelta(after.sessionsRejected, before.sessionsRejected),
               "count", 1);
    result.add("serve.sessions_aborted",
               statDelta(after.sessionsAborted, before.sessionsAborted),
               "count", 1);
    result.add("serve.results_spooled",
               statDelta(after.resultsSpooled, before.resultsSpooled),
               "count", 1);
    result.add("serve.completed_per_accepted", ratio(completed, accepted),
               "ratio", 1);
    result.add("trace.overhead_fraction",
               mean(traced.ms) / mean(plain.ms) - 1.0, "ratio",
               traced.ms.size());

    // The client's own view of a session, beside the layer ledger.
    std::string view = "client view " + options.workload + ":\n";
    for (const char *step :
         {"client.connect", "client.open", "client.upload",
          "client.backoff", "client.resume_connect", "client.resume",
          "client.finish"}) {
        char line[120];
        std::snprintf(line, sizeof(line), "  %-22s %7.2f%% of session\n",
                      step, 100.0 * ratio(total(step), ledger.endToEndNs));
        view += line;
    }
    result.ledger = view;
    result.meta["operations"] =
        "{\"untraced\":" + std::to_string(plain.ms.size()) +
        ",\"traced\":" + std::to_string(traced.ms.size()) +
        ",\"replayed_captures\":" + std::to_string(totals.captures) + "}";
    attachTrace(result, options, ledger, spans);
    return result;
}

} // namespace perfbench
