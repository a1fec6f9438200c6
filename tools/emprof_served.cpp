/**
 * @file
 * emprof_served — the EMPROF ingest daemon.
 *
 * Accepts concurrent EMCAP capture uploads over unix and/or TCP
 * sockets (EMFR framing, see src/serve/frame.hpp), analyses each
 * session incrementally on a shared thread pool, and replies with a
 * per-session event report whose status carries emprof_analyze's exit
 * semantics (0 ok, 3 degraded).  Runs until SIGINT/SIGTERM, then
 * shuts down gracefully: in-flight sessions are answered, late ones
 * get a typed Shutdown error.
 *
 * The same binary doubles as the fleet operator's probe:
 *
 *     emprof_served --listen unix:/run/emprof.sock          # serve
 *     emprof_served --scrape unix:/run/emprof.sock          # metrics
 *     emprof_served --push capture.emcap --to tcp:host:7600 # one shot
 *
 * --push prints the returned report and exits with the report status,
 * so `emprof_served --push x.emcap --to ... ; echo $?` behaves like
 * running emprof_analyze on the same capture locally.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "cli_parse.hpp"
#include "common/thread_pool.hpp"
#include "obs_cli.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace emprof;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --listen <endpoint> [options]\n"
        "       %s --scrape <endpoint>\n"
        "       %s --healthz <endpoint>\n"
        "       %s --push <capture.emcap> --to <endpoint> "
        "[--resilient]\n"
        "\n"
        "endpoints: unix:/path/to.sock | tcp:host:port "
        "(bare path = unix)\n"
        "\n"
        "serve options:\n"
        "  --listen <endpoint>   listen here (repeatable: one unix +\n"
        "                        one tcp listener)\n"
        "  --threads <n>         analysis workers (default: cores)\n"
        "  --max-sessions <n>    concurrent session cap "
        "(default 64)\n"
        "  --session-buffer <sz> per-session queue budget before\n"
        "                        backpressure, e.g. 8Mi (default)\n"
        "  --span-samples <n>    analysis span length (default auto)\n"
        "  --resilient           enable the signal-quality layer for\n"
        "                        every session (clients can also ask\n"
        "                        per session via the Open flag)\n"
        "  --spool-dir <dir>     durable result spool: every finished\n"
        "                        report is fsync'd here before the\n"
        "                        reply, and survives daemon restarts\n"
        "  --spool-retain <n>    live results kept in the spool before\n"
        "                        the oldest expire (default 4096)\n"
        "  --resume-ttl <dur>    how long a dropped session's state is\n"
        "                        parked for resume, e.g. 300s "
        "(default)\n"
        "  --status-every <dur>  print a status line this often,\n"
        "                        e.g. 30s (default: off)\n"
        "\n"
        "overload options (each 0/omitted = disabled; see DESIGN.md "
        "§17):\n"
        "  --idle-timeout <dur>  shed a session after this long with\n"
        "                        no upload progress (typed IdleTimeout;\n"
        "                        the session is parked for resume)\n"
        "  --session-deadline <dur>  hard wall-clock cap per session\n"
        "  --min-rate <sz>       minimum upload rate per second, e.g.\n"
        "                        4Ki; slower senders are shed\n"
        "  --min-rate-window <dur>  rate measurement window "
        "(default 10s)\n"
        "  --soft-queue <sz>     aggregate queue bytes past which new\n"
        "                        sessions get a typed RetryAfter\n"
        "  --hard-queue <sz>     ... past which sessions are shed\n"
        "  --soft-sessions <n>   active sessions soft watermark\n"
        "  --hard-sessions <n>   active sessions hard watermark\n"
        "  --fd-budget <n>       connection budget (hard)\n"
        "\n"
        "push options:\n"
        "  --chunk-bytes <sz>    Data frame size, e.g. 256Ki\n"
        "  --push-retries <n>    reconnect attempts on a dropped\n"
        "                        connection (default 3; 1 = no retry)\n"
        "\n"
        "exit codes: 0 ok, 1 error, 2 bad usage, 7 connection lost\n"
        "(resumable — retries exhausted); --push propagates the\n"
        "served report status (3 = degraded result); --healthz: 0\n"
        "live, 4 backoff, 5 shedding, 6 draining\n"
        "\n%s",
        argv0, argv0, argv0, argv0, tools::ObsCli::kUsage);
}

const char *
argText(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

int
runScrape(const std::string &endpointSpec)
{
    serve::Endpoint endpoint;
    std::string error;
    if (!serve::parseEndpoint(endpointSpec, endpoint, &error)) {
        std::fprintf(stderr, "--scrape: %s\n", error.c_str());
        return 2;
    }
    std::string text;
    if (!serve::Client::scrape(endpoint, text, &error)) {
        std::fprintf(stderr, "scrape failed: %s\n", error.c_str());
        return 1;
    }
    std::fputs(text.c_str(), stdout);
    return 0;
}

int
runHealthz(const std::string &endpointSpec)
{
    serve::Endpoint endpoint;
    std::string error;
    if (!serve::parseEndpoint(endpointSpec, endpoint, &error)) {
        std::fprintf(stderr, "--healthz: %s\n", error.c_str());
        return 2;
    }
    serve::HealthState state;
    if (!serve::Client::health(endpoint, state, &error)) {
        std::fprintf(stderr, "healthz failed: %s\n", error.c_str());
        return 1;
    }
    switch (state) {
    case serve::HealthState::Live:
        std::puts("live");
        return 0;
    case serve::HealthState::Backoff:
        std::puts("backoff");
        return 4;
    case serve::HealthState::Shedding:
        std::puts("shedding");
        return 5;
    case serve::HealthState::Draining:
        std::puts("draining");
        return 6;
    }
    return 1;
}

int
runPush(const std::string &capturePath, const std::string &endpointSpec,
        bool resilient, std::size_t chunkBytes, uint32_t pushRetries)
{
    serve::Endpoint endpoint;
    std::string error;
    if (endpointSpec.empty()) {
        std::fprintf(stderr, "--push needs --to <endpoint>\n");
        return 2;
    }
    if (!serve::parseEndpoint(endpointSpec, endpoint, &error)) {
        std::fprintf(stderr, "--to: %s\n", error.c_str());
        return 2;
    }
    serve::PushOptions options;
    options.resilient = resilient;
    options.uploadChunkBytes = chunkBytes;
    options.maxAttempts = pushRetries;
    const serve::PushResult result =
        serve::pushCaptureResumable(endpoint, capturePath, options);
    if (!result.ok) {
        if (result.connectionLost) {
            std::fprintf(stderr,
                         "push failed: connection lost (resumable) "
                         "after %u attempts: %s\n",
                         result.attempts, result.error.c_str());
            return 7;
        }
        std::fprintf(stderr, "push failed: %s\n", result.error.c_str());
        return 1;
    }
    if (result.resumes > 0 || result.servedFromSpool)
        std::fprintf(stderr,
                     "session %s recovered: %u resume(s), %llu bytes "
                     "replayed%s\n",
                     serve::sessionIdToHex(result.sessionId).c_str(),
                     result.resumes,
                     static_cast<unsigned long long>(
                         result.replayedBytes),
                     result.servedFromSpool ? ", report served from "
                                              "the spool"
                                            : "");
    std::fputs(result.report.reportText.c_str(), stdout);
    if (result.report.status != 0)
        std::fprintf(stderr,
                     "server flagged the result (status %u)\n",
                     result.report.status);
    return static_cast<int>(result.report.status);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string unix_listen, tcp_listen;
    std::string scrape_endpoint, healthz_endpoint;
    std::string push_capture, push_to;
    bool resilient = false;
    double status_every_s = 0.0;
    std::size_t chunk_bytes = 256 * 1024;
    uint32_t push_retries = 3;
    tools::ObsCli obs_cli;
    serve::ServerConfig config;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (obs_cli.parseArg(argc, argv, i))
            continue;
        if (arg == "--listen") {
            const std::string spec = argText(argc, argv, i);
            serve::Endpoint ep;
            std::string error;
            if (!serve::parseEndpoint(spec, ep, &error)) {
                std::fprintf(stderr, "--listen: %s\n", error.c_str());
                return 2;
            }
            if (ep.tcp)
                config.tcpPort = ep.port;
            else
                config.unixPath = ep.unixPath;
        }
        else if (arg == "--scrape")
            scrape_endpoint = argText(argc, argv, i);
        else if (arg == "--healthz")
            healthz_endpoint = argText(argc, argv, i);
        else if (arg == "--push")
            push_capture = argText(argc, argv, i);
        else if (arg == "--to")
            push_to = argText(argc, argv, i);
        else if (arg == "--threads")
            config.threads = static_cast<std::size_t>(
                tools::parseU64Flag("--threads",
                                    argText(argc, argv, i), 1, 4096));
        else if (arg == "--max-sessions")
            config.maxSessions = static_cast<std::size_t>(
                tools::parseU64Flag("--max-sessions",
                                    argText(argc, argv, i), 1,
                                    1u << 20));
        else if (arg == "--session-buffer")
            config.sessionBufferBytes =
                static_cast<std::size_t>(tools::parseSizeFlag(
                    "--session-buffer", argText(argc, argv, i),
                    64 * 1024, uint64_t{16} << 30));
        else if (arg == "--span-samples")
            config.spanSamples = static_cast<std::size_t>(
                tools::parseU64Flag("--span-samples",
                                    argText(argc, argv, i), 256,
                                    uint64_t{1} << 32));
        else if (arg == "--chunk-bytes")
            chunk_bytes = static_cast<std::size_t>(tools::parseSizeFlag(
                "--chunk-bytes", argText(argc, argv, i), 16,
                serve::kMaxFramePayload));
        else if (arg == "--push-retries")
            push_retries = static_cast<uint32_t>(
                tools::parseU64Flag("--push-retries",
                                    argText(argc, argv, i), 1, 1000));
        else if (arg == "--spool-dir")
            config.spoolDir = argText(argc, argv, i);
        else if (arg == "--spool-retain")
            config.spoolRetain = tools::parseU64Flag(
                "--spool-retain", argText(argc, argv, i), 1,
                uint64_t{1} << 32);
        else if (arg == "--resume-ttl")
            config.resumeTtlSeconds = tools::parseDurationFlag(
                "--resume-ttl", argText(argc, argv, i), 1.0,
                7 * 86400.0);
        else if (arg == "--idle-timeout")
            config.idleTimeoutSeconds = tools::parseDurationFlag(
                "--idle-timeout", argText(argc, argv, i), 0.1,
                86400.0);
        else if (arg == "--session-deadline")
            config.sessionDeadlineSeconds = tools::parseDurationFlag(
                "--session-deadline", argText(argc, argv, i), 0.1,
                7 * 86400.0);
        else if (arg == "--min-rate")
            config.minRateBytesPerSec =
                static_cast<double>(tools::parseSizeFlag(
                    "--min-rate", argText(argc, argv, i), 1,
                    uint64_t{1} << 40));
        else if (arg == "--min-rate-window")
            config.minRateWindowSeconds = tools::parseDurationFlag(
                "--min-rate-window", argText(argc, argv, i), 0.1,
                3600.0);
        else if (arg == "--soft-queue")
            config.watermarks.softQueueBytes =
                static_cast<std::size_t>(tools::parseSizeFlag(
                    "--soft-queue", argText(argc, argv, i), 1,
                    uint64_t{1} << 40));
        else if (arg == "--hard-queue")
            config.watermarks.hardQueueBytes =
                static_cast<std::size_t>(tools::parseSizeFlag(
                    "--hard-queue", argText(argc, argv, i), 1,
                    uint64_t{1} << 40));
        else if (arg == "--soft-sessions")
            config.watermarks.softSessions = static_cast<std::size_t>(
                tools::parseU64Flag("--soft-sessions",
                                    argText(argc, argv, i), 1,
                                    1u << 20));
        else if (arg == "--hard-sessions")
            config.watermarks.hardSessions = static_cast<std::size_t>(
                tools::parseU64Flag("--hard-sessions",
                                    argText(argc, argv, i), 1,
                                    1u << 20));
        else if (arg == "--fd-budget")
            config.watermarks.fdBudget = static_cast<std::size_t>(
                tools::parseU64Flag("--fd-budget",
                                    argText(argc, argv, i), 8,
                                    1u << 20));
        else if (arg == "--resilient")
            resilient = true;
        else if (arg == "--status-every")
            status_every_s = tools::parseDurationFlag(
                "--status-every", argText(argc, argv, i), 0.1, 86400.0);
        else if (tools::isHelp(argv[i])) {
            usage(argv[0]);
            return 0;
        }
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!scrape_endpoint.empty())
        return runScrape(scrape_endpoint);
    if (!healthz_endpoint.empty())
        return runHealthz(healthz_endpoint);
    if (!push_capture.empty())
        return runPush(push_capture, push_to, resilient, chunk_bytes,
                       push_retries);

    if (config.unixPath.empty() && config.tcpPort < 0) {
        std::fprintf(stderr, "nothing to do: need --listen, --scrape, "
                             "--healthz or --push\n");
        usage(argv[0]);
        return 2;
    }

    config.analysis.signal.enabled = resilient;
    serve::Server server(std::move(config));
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "cannot start server: %s\n",
                     error.c_str());
        return 1;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!server.running()) {
        std::fprintf(stderr, "server failed to start\n");
        return 1;
    }
    if (server.tcpPort() >= 0)
        std::printf("listening on tcp:127.0.0.1:%d\n",
                    server.tcpPort());
    std::fflush(stdout);

    double since_status = 0.0;
    while (g_stop == 0) {
        ::usleep(100 * 1000);
        since_status += 0.1;
        if (status_every_s > 0.0 && since_status >= status_every_s) {
            since_status = 0.0;
            const serve::ServerStats s = server.stats();
            std::printf("sessions: %llu active, %llu accepted, "
                        "%llu completed, %llu rejected; %llu bytes "
                        "ingested\n",
                        static_cast<unsigned long long>(
                            s.sessionsActive),
                        static_cast<unsigned long long>(
                            s.sessionsAccepted),
                        static_cast<unsigned long long>(
                            s.sessionsCompleted),
                        static_cast<unsigned long long>(
                            s.sessionsRejected),
                        static_cast<unsigned long long>(
                            s.bytesIngested));
            std::fflush(stdout);
        }
    }

    std::printf("shutting down...\n");
    server.stop();
    const serve::ServerStats s = server.stats();
    std::printf("served %llu sessions (%llu rejected)\n",
                static_cast<unsigned long long>(s.sessionsCompleted),
                static_cast<unsigned long long>(s.sessionsRejected));
    if (!obs_cli.finish())
        return 1;
    return 0;
}
