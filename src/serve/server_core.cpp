#include "serve/server_core.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace emprof::serve {

using lifecycle::PumpOrder;
using lifecycle::Reply;
using lifecycle::SessionEvent;
using State = lifecycle::SessionState;
using Kind = CoreEvent::Kind;
using Do = CoreAction::Kind;

namespace {

/** One row per ServerStats field, in scrape order: the field, its
 *  emprof.serve.* metric and its StatsRequest line all come from it. */
struct StatRow
{
    const char *name;
    uint64_t ServerStats::*field;
};

constexpr StatRow kStatRows[] = {
    {"emprof.serve.sessions_accepted", &ServerStats::sessionsAccepted},
    {"emprof.serve.sessions_completed", &ServerStats::sessionsCompleted},
    {"emprof.serve.sessions_rejected", &ServerStats::sessionsRejected},
    {"emprof.serve.sessions_active", &ServerStats::sessionsActive},
    {"emprof.serve.bytes_ingested", &ServerStats::bytesIngested},
    {"emprof.serve.frames_malformed", &ServerStats::framesMalformed},
    {"emprof.serve.sessions_parked", &ServerStats::sessionsParked},
    {"emprof.serve.sessions_resumed", &ServerStats::sessionsResumed},
    {"emprof.serve.results_spooled", &ServerStats::resultsSpooled},
    {"emprof.serve.results_served_from_spool",
     &ServerStats::resultsServedFromSpool},
    {"emprof.serve.sessions_aborted", &ServerStats::sessionsAborted},
    {"emprof.serve.sessions_timed_out", &ServerStats::sessionsTimedOut},
    {"emprof.serve.sessions_shed", &ServerStats::sessionsShed},
    {"emprof.serve.retry_after_sent", &ServerStats::retryAfterSent},
    {"emprof.serve.accept_fd_exhausted", &ServerStats::acceptFdExhausted},
    {"emprof.serve.results_spool_failed",
     &ServerStats::resultsSpoolFailed},
    {"emprof.serve.parked_evicted", &ServerStats::parkedEvicted},
    {"emprof.serve.parked_expired", &ServerStats::parkedExpired},
};
constexpr std::size_t kStatCount = std::size(kStatRows);

/** Handles registered once; no-ops while obs is disabled.  The
 *  sessions_active row is a gauge; every other row a counter. */
struct ServeMetrics
{
    std::array<obs::Counter, kStatCount> counters;
    obs::Gauge sessionsActive;
    obs::Gauge queueDepthBytes;
    obs::Histogram sessionUs;
    obs::Histogram feedUs;

    static const ServeMetrics &
    instance()
    {
        static const ServeMetrics m = [] {
            auto &reg = obs::MetricsRegistry::instance();
            ServeMetrics v;
            for (std::size_t i = 0; i < kStatCount; ++i)
                if (kStatRows[i].field == &ServerStats::sessionsActive)
                    v.sessionsActive = reg.gauge(kStatRows[i].name);
                else
                    v.counters[i] = reg.counter(kStatRows[i].name);
            v.queueDepthBytes =
                reg.gauge("emprof.serve.queue_depth_bytes");
            v.sessionUs =
                reg.histogram("emprof.serve.stage.session_us");
            v.feedUs = reg.histogram("emprof.serve.stage.feed_us");
            return v;
        }();
        return m;
    }
};

ServerCore::TimePoint
after(ServerCore::TimePoint from, double seconds)
{
    return from + std::chrono::duration_cast<ServerCore::TimePoint::duration>(
                      std::chrono::duration<double>(seconds));
}

/** Listeners sit out this long after an accept() they cannot serve,
 *  so a ready-but-unacceptable listener cannot spin the loop hot. */
constexpr double kListenerMuteSeconds = 0.2;

} // namespace

Outbound
Outbound::failure(ErrorCode code, const std::string &message,
                  uint32_t retryAfterMs)
{
    Outbound out(FrameType::Error,
                 code == ErrorCode::RetryAfter
                     ? encodeRetryAfterPayload(retryAfterMs, message)
                     : encodeErrorPayload(code, message));
    out.error = code;
    return out;
}

ServerCore::ServerCore(ServerConfig config, uint64_t idSeed,
                       std::function<void()> wake)
    : config_(std::move(config)), wake_(std::move(wake)), idRng_(idSeed),
      governor_(config_.watermarks)
{
}

std::vector<CoreAction>
ServerCore::step(const CoreEvent &event, TimePoint now)
{
    now_ = now;
    actions_.clear();
    switch (event.kind) {
    case Kind::Accepted: {
        auto s = std::make_shared<CoreSession>();
        s->conn = event.conn;
        s->openedAt = s->lastProgressAt = s->rateWindowStart = now;
        sessions_.push_back(std::move(s));
        break;
    }
    case Kind::AcceptFailed:
        // fd exhaustion leaves the listener readable, so a blanket
        // return would spin the poll loop hot doing nothing.  Spend the
        // emergency fd on ONE waiting connection, tell it (typed
        // RetryAfter) to come back, and mute the listeners for a tick;
        // any other persistent failure only mutes them.
        if (event.error == EMFILE || event.error == ENFILE) {
            count(&ServerStats::acceptFdExhausted);
            emit({Do::SpendEmergencyFd});
        }
        emit({Do::MuteListeners, -1, {}, nullptr,
              after(now, kListenerMuteSeconds)});
        break;
    case Kind::EmergencyAccepted: {
        count(&ServerStats::retryAfterSent);
        count(&ServerStats::sessionsRejected);
        Outbound answer = Outbound::failure(
            ErrorCode::RetryAfter,
            "server out of file descriptors; retry later",
            governor_.watermarks().retryAfterBaseMs);
        emit({Do::Write, event.conn, std::move(answer.frames)});
        emit({Do::Close, event.conn});
        break;
    }
    case Kind::Bytes:
        if (const SessionPtr s = find(event.conn)) {
            s->lastProgressAt = now;
            s->socketBytesRead += event.size;
            s->inbox.insert(s->inbox.end(), event.data,
                            event.data + event.size);
            processInbox(s);
        }
        break;
    case Kind::Hangup: // park, or drain first (Draining)
        if (const SessionPtr s = find(event.conn))
            advance(s, SessionEvent::PeerEof, {});
        break;
    case Kind::Tick:
        tick();
        break;
    case Kind::Stop:
        // Idle sessions are answered Shutdown now; a running pump is
        // told to abandon its queue, and its completion is settled at
        // Drained like any other: its report if that came first,
        // Shutdown otherwise.
        stopping_ = true;
        for (std::size_t i = 0; i < sessions_.size(); ++i)
            advance(sessions_[i], SessionEvent::Stop,
                    Outbound::failure(ErrorCode::Shutdown,
                                      "server shutting down"));
        break;
    case Kind::Drained:
        for (std::size_t i = 0; i < sessions_.size(); ++i)
            settlePump(sessions_[i]);
        sessions_.clear();
        // Parked pipelines die with the process anyway on a real
        // restart; dropping them is safe because a resume of an
        // unknown id simply starts the upload over from offset 0.
        parked_.clear();
        stopping_ = false;
        lastQueueBytes_ = 0;
        lastLevel_ = LoadGovernor::Level::Normal;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.sessionsActive = 0;
        }
        ServeMetrics::instance().sessionsActive.set(0);
        break;
    }
    return std::move(actions_);
}

ServerCore::SessionPtr
ServerCore::find(int conn) const
{
    // Socket events reach only polled sessions.
    for (const SessionPtr &s : sessions_)
        if (s->conn == conn)
            return lifecycle::polled(s->state) && !s->heldOpen ? s
                                                               : nullptr;
    return nullptr;
}

std::vector<int>
ServerCore::polled() const
{
    std::vector<int> conns;
    for (const SessionPtr &s : sessions_)
        if (lifecycle::polled(s->state) && !s->suspended && !s->heldOpen)
            conns.push_back(s->conn);
    return conns;
}

ServerStats
ServerCore::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

uint64_t
ServerCore::count(uint64_t ServerStats::*field, uint64_t n)
{
    for (std::size_t i = 0; i < kStatCount; ++i)
        if (kStatRows[i].field == field)
            ServeMetrics::instance().counters[i].add(n);
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_.*field += n;
}

SessionId
ServerCore::nextSessionId()
{
    SessionId id;
    for (std::size_t i = 0; i < id.size(); i += 8) {
        const uint64_t word = idRng_();
        std::memcpy(id.data() + i, &word, 8);
    }
    return id;
}

void
ServerCore::tick()
{
    // Settle posted completions.  Hysteresis: stop reading at the
    // budget, resume only once the pump drained below half of it.
    std::size_t queue_bytes = 0;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const SessionPtr s = sessions_[i];
        const std::size_t queued = settlePump(s);
        queue_bytes += queued;
        if (queued >= config_.sessionBufferBytes)
            s->suspended = true;
        else if (queued <= config_.sessionBufferBytes / 2)
            s->suspended = false;
    }
    ServeMetrics::instance().queueDepthBytes.set(
        static_cast<int64_t>(queue_bytes));
    lastQueueBytes_ = queue_bytes;

    enforceOverload();

    // Reap sessions that parked or ended.
    std::erase_if(sessions_, [](const SessionPtr &s) {
        return s->state == State::Parked || s->state == State::Done;
    });
    const std::size_t active = activeSessions();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.sessionsActive = active;
    }
    ServeMetrics::instance().sessionsActive.set(
        static_cast<int64_t>(active));
    purgeParked();
}

std::size_t
ServerCore::activeSessions() const
{
    return static_cast<std::size_t>(std::count_if(
        sessions_.begin(), sessions_.end(),
        [](const SessionPtr &s) { return lifecycle::holdsId(s->state); }));
}

std::size_t
ServerCore::settlePump(const SessionPtr &session)
{
    std::optional<PumpCompletion> done;
    std::size_t queued = 0;
    {
        std::lock_guard<std::mutex> lock(session->mutex);
        queued = session->work.bytes;
        done.swap(session->work.completion);
        if (done)
            session->work.running = false;
    }
    if (!done)
        return queued;
    switch (done->event) {
    case SessionEvent::PumpReport: {
        // Counted before the Report leaves, like the completion.  A
        // spool failure (disk full, ...) only loses crash recovery: the
        // reply still goes out, logged once on healthy → degraded.
        if (done->spooled)
            count(&ServerStats::resultsSpooled);
        if (done->spoolError &&
            count(&ServerStats::resultsSpoolFailed) == 1)
            std::fprintf(stderr,
                         "emprof_served: result spool append failed "
                         "(%s); serving non-durably\n",
                         done->spoolError->c_str());
        advance(session, SessionEvent::PumpReport,
                Outbound(FrameType::Report, std::move(done->report)));
        break;
    }
    case SessionEvent::PumpFailed:
        advance(session, SessionEvent::PumpFailed,
                Outbound::failure(done->code, done->message));
        break;
    default:
        advance(session, SessionEvent::PumpStopped, {});
        break;
    }
    return queued;
}

void
ServerCore::advance(const SessionPtr &s, SessionEvent event, Outbound reply,
                    std::vector<uint8_t> data)
{
    lifecycle::SessionFacts facts;
    facts.deferred = s->deferred;
    lifecycle::Step step;
    bool submit = false;
    {
        // Facts and orders under one lock hold: a pump cannot go idle
        // between "it runs" and "tell it to stop", and the pipeline is
        // only looked at once no pump owns it.
        std::lock_guard<std::mutex> lock(s->mutex);
        CoreSession::Work &work = s->work;
        facts.pumpRunning = work.running;
        facts.parkable = !work.running && s->pipeline != nullptr &&
                         !s->pipeline->poisoned() && !stopping_;
        step = lifecycle::advance(s->state, event, facts);
        if (step.pump == PumpOrder::Feed) {
            if (event == SessionEvent::Data) {
                work.bytes += data.size();
                work.data.push_back(std::move(data));
            } else {
                work.finish = true;
            }
            submit = !work.running;
            work.running = true;
        } else if (step.pump != PumpOrder::None) {
            work.stop = std::max(work.stop, step.pump);
        }
    }
    if (submit)
        emit({Do::Submit, -1, {}, s});

    const State from = s->state;
    s->state = step.next;
    if (step.next == State::Draining) {
        if (from != State::Draining) {
            s->deferred = event;
            s->deferredReply = std::move(reply);
        }
        return;
    }
    if (event == SessionEvent::PumpStopped && from == State::Draining) {
        event = s->deferred;
        reply = std::move(s->deferredReply);
    }
    if (from == State::Handshake && step.next == State::Uploading)
        count(&ServerStats::sessionsAccepted);

    // Count the outcome BEFORE the reply leaves the socket: a client
    // holding its Report or Error must see the counter already bumped.
    // A failed write means the peer hung up; the outcome stands.
    const bool ends = from != State::Parked && from != State::Done &&
                      (step.next == State::Parked ||
                       step.next == State::Done);
    if (step.reply == Reply::Report)
        count(&ServerStats::sessionsCompleted);
    if (step.reply == Reply::Error) {
        count(&ServerStats::sessionsRejected);
        if (reply.error == ErrorCode::RetryAfter)
            count(&ServerStats::retryAfterSent);
    }
    if (ends && step.reply == Reply::None &&
        step.next == State::Done && event == SessionEvent::PeerEof &&
        s->socketBytesRead > 0) {
        // Spoke, then died with nothing said and nothing parkable (a
        // torn handshake, say).  Zero-byte connects count nowhere.
        count(&ServerStats::sessionsAborted);
    }
    if (step.reply != Reply::None && s->conn >= 0)
        emit({Do::Write, s->conn, std::move(reply.frames)});
    if (step.reply == Reply::Report)
        ServeMetrics::instance().sessionUs.observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now_ - s->openedAt)
                .count()));

    if (!ends)
        return;
    if (s->conn >= 0) {
        emit({Do::Close, s->conn});
        s->conn = -1;
    }
    if (step.next == State::Parked)
        park(s);
    else
        s->pipeline.reset();
    if (lifecycle::holdsId(from) && !stopping_)
        releaseHeldOpens(s->id);
}

void
ServerCore::park(const SessionPtr &session)
{
    // Shed ≠ forgotten, hang-up ≠ lost: the pipeline waits for a
    // resume, keyed by id, its partial element dropped.
    count(&ServerStats::sessionsParked);
    session->resumeOffset = session->pipeline->rewindToResumable();
    session->parkedUntil = after(now_, config_.resumeTtlSeconds);
    session->inbox = {};
    if (parked_.size() >= config_.maxParked && !parked_.empty()) {
        // Evict the entry closest to expiry; its client falls back to
        // a fresh upload from offset 0.
        const auto oldest = std::min_element(
            parked_.begin(), parked_.end(), [](const auto &a, const auto &b) {
                return a.second->parkedUntil < b.second->parkedUntil;
            });
        parked_.erase(oldest);
        count(&ServerStats::parkedEvicted);
    }
    parked_[sessionIdToHex(session->id)] = session;
}

void
ServerCore::purgeParked()
{
    for (auto it = parked_.begin(); it != parked_.end();) {
        if (it->second->parkedUntil > now_) {
            ++it;
            continue;
        }
        it = parked_.erase(it);
        count(&ServerStats::parkedExpired);
    }
}

void
ServerCore::releaseHeldOpens(const SessionId &id)
{
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const SessionPtr waiter = sessions_[i];
        if (!waiter->heldOpen ||
            std::memcmp(waiter->heldOpen->sessionId, id.data(),
                        id.size()) != 0)
            continue;
        const OpenRequest open = *waiter->heldOpen;
        waiter->heldOpen.reset();
        handleOpen(waiter, open);
        processInbox(waiter);
    }
}

void
ServerCore::processInbox(const SessionPtr &session)
{
    const auto refuse = [&](const std::string &message) {
        advance(session, SessionEvent::ProtocolError,
                Outbound::failure(ErrorCode::Malformed, message));
    };
    while (lifecycle::polled(session->state) && !session->heldOpen) {
        Frame frame;
        std::string parse_error;
        const long consumed =
            parseFrame(session->inbox.data(), session->inbox.size(), frame,
                       &parse_error);
        if (consumed == 0)
            break; // incomplete; wait for more bytes
        if (consumed < 0) {
            count(&ServerStats::framesMalformed);
            refuse(parse_error);
            break;
        }
        session->inbox.erase(session->inbox.begin(),
                             session->inbox.begin() + consumed);
        const bool opened = session->state != State::Handshake;

        switch (frame.type) {
        case FrameType::Open: {
            if (opened || frame.payload.size() != sizeof(OpenRequest)) {
                refuse(opened ? "duplicate Open frame"
                              : "bad Open payload");
                break;
            }
            OpenRequest open{};
            std::memcpy(&open, frame.payload.data(), sizeof(open));
            handleOpen(session, open);
            break;
        }
        case FrameType::Data:
            if (!opened) {
                refuse("Data before Open");
                break;
            }
            count(&ServerStats::bytesIngested, frame.payload.size());
            advance(session, SessionEvent::Data, {},
                    std::move(frame.payload));
            break;
        case FrameType::Finish:
            if (!opened)
                refuse("Finish before Open");
            else
                advance(session, SessionEvent::Finish, {});
            break;
        case FrameType::StatsRequest: {
            std::string text;
            const ServerStats now = stats();
            for (const StatRow &row : kStatRows)
                text += std::string(row.name) + " " +
                        std::to_string(now.*row.field) + "\n";
            if (obs::MetricsRegistry::enabled())
                text += obs::metricsToText();
            advance(session, SessionEvent::Answered,
                    Outbound(FrameType::Stats,
                             std::vector<uint8_t>(text.begin(),
                                                  text.end())));
            break;
        }
        case FrameType::HealthRequest:
            // Answered before any Open and without touching session
            // accounting, so a load balancer can probe a server that
            // is far too loaded to admit anything.
            advance(session, SessionEvent::Answered,
                    Outbound(FrameType::Health,
                             {static_cast<uint8_t>(healthStateNow())}));
            break;
        default:
            refuse("unexpected frame type from client");
            break;
        }
    }
}

void
ServerCore::handleOpen(const SessionPtr &session, const OpenRequest &open)
{
    SessionId id;
    std::memcpy(id.data(), open.sessionId, id.size());
    const bool want_resume =
        (open.flags & kOpenResume) != 0 && !sessionIdIsZero(id);
    const bool resilient = (open.flags & kOpenResilient) != 0;
    const auto refuse = [&](ErrorCode code, const std::string &message,
                            uint32_t retryAfterMs = 0) {
        advance(session, SessionEvent::OpenRefused,
                Outbound::failure(code, message, retryAfterMs));
    };
    const auto accept = [&](uint64_t offset, SessionState wire) {
        session->id = id;
        advance(session, SessionEvent::OpenAccepted,
                Outbound(FrameType::OpenAck,
                         encodeOpenAckPayload(id, offset, wire)));
    };

    // Another connection still holds this id (its pump is draining
    // what it received, or building its report): answer once it has
    // parked or ended, so the answer is Resumed at the durable offset
    // or Complete, never a Fresh restart that races the park.
    if (want_resume &&
        std::any_of(sessions_.begin(), sessions_.end(),
                    [&](const SessionPtr &other) {
                        return other != session &&
                               lifecycle::holdsId(other->state) &&
                               other->id == id;
                    })) {
        session->heldOpen = open;
        return;
    }

    // A session that already finished in a previous connection (or a
    // previous daemon life): acknowledge Complete and replay the
    // spooled Report payload verbatim — bit-identity by construction.
    if (want_resume && spool_.has(id)) {
        uint32_t status = 0;
        std::vector<uint8_t> payload;
        std::string why;
        if (spool_.fetch(id, status, payload, &why)) {
            count(&ServerStats::resultsServedFromSpool);
            Outbound answer(FrameType::OpenAck,
                            encodeOpenAckPayload(
                                id, 0, SessionState::Complete));
            answer.frames.push_back(
                {FrameType::Report, std::move(payload)});
            advance(session, SessionEvent::Answered, std::move(answer));
            return;
        }
        // Spooled record damaged at rest: fall through to a fresh
        // upload; the re-analysis replaces the bad record.
    }

    if (activeSessions() >= config_.maxSessions)
        return refuse(ErrorCode::Busy,
                      "session limit reached (" +
                          std::to_string(config_.maxSessions) + ")");

    // A parked pipeline: validate the client's idea of the offset
    // against ours, re-attach, and tell it where to resume from.
    if (want_resume) {
        const std::string hex = sessionIdToHex(id);
        const auto it = parked_.find(hex);
        if (it != parked_.end()) {
            const SessionPtr parked = it->second;
            // A mismatch leaves the pipeline parked: a corrected
            // retry may follow.
            if (open.resumeFrom != kResumeQuery &&
                open.resumeFrom != parked->resumeOffset)
                return refuse(ErrorCode::BadResume,
                              "resume offset " +
                                  std::to_string(open.resumeFrom) +
                                  " does not match the durable offset " +
                                  std::to_string(parked->resumeOffset) +
                                  " for session " + hex);
            if (parked->pipeline->resilient() != resilient)
                return refuse(ErrorCode::BadResume,
                              "resilience mode differs from the parked "
                              "session " +
                                  hex);
            session->pipeline = std::move(parked->pipeline);
            parked_.erase(it);
            count(&ServerStats::sessionsResumed);
            return accept(parked->resumeOffset, SessionState::Resumed);
        }
        // Nothing parked or spooled.  An explicit non-zero offset would
        // skip bytes we never saw: a typed error.  kResumeQuery (or 0)
        // degrades to a fresh upload; the daemon may have restarted.
        if (open.resumeFrom != kResumeQuery && open.resumeFrom != 0)
            return refuse(ErrorCode::BadResume,
                          "unknown session " + hex +
                              " cannot resume at offset " +
                              std::to_string(open.resumeFrom));
    }

    // Admission control: FRESH sessions only — a resume was already
    // admitted above because it *reduces* load (it frees a parked
    // slot and lets a shed upload finish instead of restarting).
    if (config_.watermarks.anyEnabled()) {
        const LoadSnapshot snap = currentSnapshot();
        if (governor_.classify(snap) != LoadGovernor::Level::Normal) {
            const uint32_t hint = governor_.suggestedBackoffMs(snap);
            return refuse(ErrorCode::RetryAfter,
                          "server overloaded; retry in " +
                              std::to_string(hint) + " ms",
                          hint);
        }
    }

    // Fresh session (possibly keeping a client-proposed id so a later
    // resume can find it).
    if (sessionIdIsZero(id))
        id = nextSessionId();
    profiler::EmProfConfig analysis = config_.analysis;
    analysis.signal.enabled = resilient;
    session->pipeline =
        std::make_unique<SessionPipeline>(analysis, config_.spanSamples);
    accept(0, SessionState::Fresh);
}

void
ServerCore::pump(const SessionPtr &session)
{
    CoreSession &s = *session;
    PumpCompletion done;
    const auto failed = [&done](ErrorCode code, std::string message) {
        done.event = SessionEvent::PumpFailed;
        done.code = code;
        done.message = std::move(message);
    };
    try {
        for (;;) {
            std::vector<uint8_t> item;
            bool finish = false;
            bool crossed_resume = false;
            {
                std::lock_guard<std::mutex> lock(s.mutex);
                CoreSession::Work &work = s.work;
                if (work.stop == PumpOrder::Abandon)
                    break;
                if (!work.data.empty()) {
                    item = std::move(work.data.front());
                    work.data.pop_front();
                    const std::size_t half = config_.sessionBufferBytes / 2;
                    crossed_resume =
                        work.bytes > half && work.bytes - item.size() <= half;
                    work.bytes -= item.size();
                } else if (work.finish) {
                    work.finish = false;
                    finish = true;
                } else if (work.stop == PumpOrder::Drain) {
                    break;
                } else {
                    // Idle: the pipeline is the core's again until the
                    // next Data or Finish re-arms a pump.
                    work.running = false;
                    return;
                }
            }
            if (finish) {
                profiler::ProfileResult result;
                std::string why;
                if (!s.pipeline->finish(result, &why)) {
                    failed(ErrorCode::Malformed, why);
                    break;
                }
                const auto &quality = result.report.quality;
                const uint32_t status =
                    quality.enabled && quality.coverageFraction < 1.0 ? 3u
                                                                      : 0u;
                done.event = SessionEvent::PumpReport;
                done.report = encodeReportPayload(
                    status, s.pipeline->decoder().info().totalSamples,
                    quality.enabled ? quality.coverageFraction : 1.0,
                    result.events, result.report.toText("served capture"));
                // Durability BEFORE delivery: the result is fsync'd
                // into the spool before the completion is posted, so a
                // reply lost to a dead socket (or a daemon crash right
                // after this point) is recoverable — the client resumes
                // by id and is served from the spool.
                if (spool_.isOpen()) {
                    std::string why_not;
                    done.spooled = spool_.append(s.id, status, done.report,
                                                 &why_not);
                    if (!done.spooled)
                        done.spoolError = why_not;
                }
                break;
            }
            // The feed_us histogram is timed by obs; no decision
            // reads it.
            const uint64_t t0 = obs::Tracer::nowNs();
            std::string why;
            const bool ok = s.pipeline->feed(item.data(), item.size(), &why);
            if (obs::MetricsRegistry::enabled())
                ServeMetrics::instance().feedUs.observe(
                    (obs::Tracer::nowNs() - t0) / 1000);
            if (!ok) {
                failed(ErrorCode::Malformed, why);
                break;
            }
            if (crossed_resume)
                wake_(); // the socket may resume reading
        }
    } catch (const std::exception &e) {
        done = PumpCompletion{};
        failed(ErrorCode::Internal,
               std::string("analysis failed: ") + e.what());
    }
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.work.data.clear();
        s.work.bytes = 0;
        s.work.finish = false;
        s.work.completion = std::move(done);
    }
    wake_();
}

LoadSnapshot
ServerCore::currentSnapshot() const
{
    LoadSnapshot snap;
    snap.queueBytes = lastQueueBytes_;
    snap.activeSessions = activeSessions();
    snap.parked = parked_.size();
    // Sessions (incl. pre-Open connections) + listeners + the wake
    // pipe and the emergency reserve.
    const std::size_t listeners =
        (config_.unixPath.empty() ? 0 : 1) + (config_.tcpPort >= 0 ? 1 : 0);
    snap.connections = sessions_.size() + listeners + 3;
    return snap;
}

HealthState
ServerCore::healthStateNow() const
{
    if (stopping_)
        return HealthState::Draining;
    return lastLevel_ == LoadGovernor::Level::Hard   ? HealthState::Shedding
           : lastLevel_ == LoadGovernor::Level::Soft ? HealthState::Backoff
                                                     : HealthState::Live;
}

void
ServerCore::enforceOverload()
{
    const bool time_checks = config_.idleTimeoutSeconds > 0 ||
                             config_.sessionDeadlineSeconds > 0 ||
                             config_.minRateBytesPerSec > 0;
    const bool watermarks = config_.watermarks.anyEnabled();
    if (!time_checks && !watermarks)
        return; // defaults-off: strictly inert

    const auto seconds_since = [&](TimePoint t) {
        return std::chrono::duration<double>(now_ - t).count();
    };
    // Draining sessions already have a verdict pending; Parked and
    // Done ones have no socket; a held resume waits on the server.
    const auto sheddable = [](const CoreSession &s) {
        return (lifecycle::polled(s.state) ||
                s.state == State::Finishing) &&
               !s.heldOpen;
    };

    for (std::size_t i = 0; time_checks && i < sessions_.size(); ++i) {
        const SessionPtr s = sessions_[i];
        if (!sheddable(*s))
            continue;
        const bool finishing = s->state == State::Finishing;
        bool pump_running = false;
        {
            std::lock_guard<std::mutex> lock(s->mutex);
            pump_running = s->work.running;
        }
        const bool server_side_stall =
            finishing || pump_running || s->suspended;
        if (server_side_stall) {
            // Analysis or backpressure is the bottleneck — our
            // doing, not the client's.  Restart the idle clock so
            // the silence is never held against it.
            s->lastProgressAt = now_;
        }
        // The rate window, by contrast, pauses only while reads are
        // off (backpressure) or the upload is over (Finish queued).
        // A pump merely in flight does not stop bytes arriving — and
        // a trickler's sips keep one in flight at almost every tick,
        // so excusing it would let slow-loris reset the window
        // indefinitely.
        if (s->suspended || finishing) {
            s->rateWindowStart = now_;
            s->rateWindowBase = s->socketBytesRead;
        }

        // The wall-clock deadline binds regardless of whose fault
        // the elapsed time is.
        const char *why = nullptr;
        const double window = config_.minRateWindowSeconds > 0
                                  ? config_.minRateWindowSeconds
                                  : 10.0;
        if (config_.sessionDeadlineSeconds > 0 &&
            seconds_since(s->openedAt) >= config_.sessionDeadlineSeconds)
            why = "session deadline exceeded";
        else if (!server_side_stall && config_.idleTimeoutSeconds > 0 &&
                 seconds_since(s->lastProgressAt) >=
                     config_.idleTimeoutSeconds)
            why = "no upload progress; parked for resume";
        else if (!s->suspended && s->state == State::Uploading &&
                 config_.minRateBytesPerSec > 0 &&
                 seconds_since(s->rateWindowStart) >= window) {
            const double rate =
                static_cast<double>(s->socketBytesRead -
                                    s->rateWindowBase) /
                seconds_since(s->rateWindowStart);
            if (rate < config_.minRateBytesPerSec)
                why = "upload rate below the floor; parked for resume";
            s->rateWindowStart = now_;
            s->rateWindowBase = s->socketBytesRead;
        }
        if (why != nullptr) {
            count(&ServerStats::sessionsTimedOut);
            advance(s, SessionEvent::TickShed,
                    Outbound::failure(ErrorCode::IdleTimeout, why));
        }
    }

    if (!watermarks) {
        lastLevel_ = LoadGovernor::Level::Normal;
        return;
    }
    const LoadSnapshot snap = currentSnapshot();
    lastLevel_ = governor_.classify(snap);
    if (lastLevel_ != LoadGovernor::Level::Hard)
        return;

    // Hard overload: shed established sessions, most-stalled first —
    // the sessions most likely to be hostile, and whose eviction
    // frees the most slot-time per report lost.
    const uint64_t target = governor_.shedTarget(snap);
    if (target == 0)
        return;
    std::vector<SessionPtr> candidates;
    for (const auto &s : sessions_)
        if (sheddable(*s) && s->state != State::Handshake)
            candidates.push_back(s);
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  return a->lastProgressAt < b->lastProgressAt;
              });
    const uint32_t hint = governor_.suggestedBackoffMs(snap);
    const std::size_t shed_count =
        std::min<std::size_t>(target, candidates.size());
    for (std::size_t i = 0; i < shed_count; ++i)
        advance(candidates[i], SessionEvent::HardShed,
             Outbound::failure(ErrorCode::RetryAfter,
                               "load shed under hard watermark; "
                               "resume in " +
                                   std::to_string(hint) + " ms",
                               hint));
    if (shed_count > 0)
        count(&ServerStats::sessionsShed, shed_count);
}

} // namespace emprof::serve
