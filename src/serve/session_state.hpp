/**
 * @file
 * The lifecycle of one served connection, as a pure function: the
 * state and an event go in; the next state, the frame to send and an
 * order for the session's pump come out.  CoreSession carries one
 * SessionState, written only by ServerCore::advance(); the
 * state table is in server.hpp and DESIGN.md §14.  No socket, lock or
 * clock is touched, so tests/serve/test_session_lifecycle.cpp drives
 * it with random event sequences.
 *
 * An event that ends the session while its pump runs moves it to
 * Draining: the pump drains its queue (hang-up) or abandons it (shed,
 * protocol error, stop), and the event waits.  On the pump's
 * completion it is settled as if the pump had been idle — unless the
 * pump's report or failure came first, which then wins.
 */

#ifndef EMPROF_SERVE_SESSION_STATE_HPP
#define EMPROF_SERVE_SESSION_STATE_HPP

#include <cstdint>

namespace emprof::serve::lifecycle {

enum class SessionState : uint8_t
{
    Handshake,
    Uploading,
    Finishing,
    Draining,
    Parked,
    Done,
};

enum class SessionEvent : uint8_t
{
    OpenAccepted,  ///< Open admitted, fresh or resumed
    OpenRefused,   ///< Open answered with a typed Error
    Answered,      ///< Stats/Health probe, or a resume served from spool
    ProtocolError, ///< malformed or out-of-order frame
    Data,          ///< a Data payload for the pump
    Finish,        ///< end of upload: the pump builds the report
    PeerEof,       ///< the socket read EOF or failed
    TickShed,      ///< idle / deadline / rate-floor shed (IdleTimeout)
    HardShed,      ///< hard-watermark load shed (RetryAfter)
    Stop,          ///< the server is stopping (Shutdown)
    PumpReport,    ///< completion: report built (and spooled)
    PumpFailed,    ///< completion: typed analysis failure
    PumpStopped,   ///< completion: drained or abandoned on order
};

/** The frame a step sends; its bytes are the caller's business. */
enum class Reply : uint8_t
{
    None,
    OpenAck,
    Answer, ///< Stats, Health, or OpenAck(Complete) + spooled Report
    Report,
    Error,
};

/** What the session's work queue is told. */
enum class PumpOrder : uint8_t
{
    None,
    Feed,    ///< queue the Data payload / Finish entry; run the pump
    Drain,   ///< feed what is queued, then stop (hang-up)
    Abandon, ///< drop what is queued and stop (shed, error, stop)
};

struct SessionFacts
{
    /** A pump task owns the pipeline.  A completion event is the
     *  pump's last act, so it always arrives with this false. */
    bool pumpRunning = false;
    /** The pipeline exists, is not poisoned, and the server is not
     *  stopping. */
    bool parkable = false;
    /** Draining only: the event that started the drain. */
    SessionEvent deferred = SessionEvent::PeerEof;
};

struct Step
{
    SessionState next = SessionState::Done;
    Reply reply = Reply::None;
    PumpOrder pump = PumpOrder::None;
};

/** The transition function (see the file comment).  Events that
 *  cannot occur in @p state leave it unchanged and send nothing. */
Step advance(SessionState state, SessionEvent event,
             const SessionFacts &facts);

/** Whether the I/O thread polls the session's socket in @p state
 *  (Uploading: unless backpressured). */
constexpr bool
polled(SessionState state)
{
    return state == SessionState::Handshake ||
           state == SessionState::Uploading;
}

/** An admitted session still using its id: a resume of that id waits
 *  until it parks or ends. */
constexpr bool
holdsId(SessionState state)
{
    return state == SessionState::Uploading ||
           state == SessionState::Finishing ||
           state == SessionState::Draining;
}

} // namespace emprof::serve::lifecycle

#endif // EMPROF_SERVE_SESSION_STATE_HPP
