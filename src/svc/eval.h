// The service's pure evaluation core: one request in, one content-
// determined Outcome out. No caching, no queueing — those live in the
// Service's result memo (svc/server.h) and svc/scheduler.h; this layer
// only dispatches onto the model library and renders deterministic JSON
// payloads.
#pragma once

#include "svc/request.h"

namespace nano::svc {

/// Evaluate one request. Never throws: model/solver failures (off-roadmap
/// node, invalid operating point, non-converged solve) come back as an
/// Error outcome with the exception message, so one bad point cannot kill
/// a serving session. Ok payloads are byte-identical for identical
/// canonical keys at any thread count — except RequestKind::Stats, which
/// snapshots the process's live metrics and must never be cached (the
/// service bypasses the result cache for it).
///
/// Instrumented: "svc/latency/<kind>" timers, the "svc/errors" counter,
/// and a per-kind synchronous trace span under the current TraceContext.
Outcome evaluate(const Request& request);

}  // namespace nano::svc
