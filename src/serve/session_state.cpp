#include "serve/session_state.hpp"

namespace emprof::serve::lifecycle {

namespace {

using E = SessionEvent;
using S = SessionState;

/** Settle a session-ending event once no pump is in the way. */
Step
settle(E event, bool parkable)
{
    const S park = parkable ? S::Parked : S::Done;
    switch (event) {
    case E::PeerEof:
        return {park};
    case E::TickShed:
    case E::HardShed: // every typed shed is resumable: reply, then park
        return {park, Reply::Error};
    case E::Answered:
        return {S::Done, Reply::Answer};
    case E::PumpReport:
        return {S::Done, Reply::Report};
    default: // refused, protocol error, stop, pump failure
        return {S::Done, Reply::Error};
    }
}

/** Events that end an admitted session; @p polled adds the ones that
 *  arrive off its socket. */
bool
ends(E event, bool polled)
{
    switch (event) {
    case E::TickShed:
    case E::HardShed:
    case E::Stop:
        return true;
    case E::PeerEof:
    case E::ProtocolError:
    case E::Answered:
        return polled;
    default:
        return false;
    }
}

} // namespace

Step
advance(S state, E event, const SessionFacts &facts)
{
    switch (state) {
    case S::Handshake:
        if (event == E::OpenAccepted)
            return {S::Uploading, Reply::OpenAck};
        if (event == E::PeerEof || event == E::Stop)
            return {S::Done}; // nothing was admitted: no reply
        if (event == E::Data || event == E::Finish) // before Open
            return settle(E::ProtocolError, false);
        if (event == E::OpenRefused || ends(event, true))
            return settle(event, false);
        return {state};

    case S::Uploading:
    case S::Finishing:
        if (event == E::PumpFailed ||
            (event == E::PumpReport && state == S::Finishing))
            return settle(event, false);
        if (state == S::Uploading && event == E::Data)
            return {state, Reply::None, PumpOrder::Feed};
        if (state == S::Uploading && event == E::Finish)
            return {S::Finishing, Reply::None, PumpOrder::Feed};
        if (!ends(event, state == S::Uploading))
            return {state};
        if (facts.pumpRunning)
            return {S::Draining, Reply::None,
                    event == E::PeerEof ? PumpOrder::Drain
                                        : PumpOrder::Abandon};
        return settle(event, facts.parkable);

    case S::Draining:
        if (event == E::PumpReport || event == E::PumpFailed)
            return settle(event, false); // the pump's word came first
        if (event == E::PumpStopped)
            return settle(facts.deferred, facts.parkable);
        return {state, Reply::None,
                event == E::Stop ? PumpOrder::Abandon : PumpOrder::None};

    case S::Parked: // over; the parked map owns the pipeline
    case S::Done:
        break;
    }
    return {state};
}

} // namespace emprof::serve::lifecycle
