#include "serve/service.hh"

#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace dronedse::serve {

Service::Service(ServiceOptions options)
    : options_(options), engine_(options.engine),
      planner_(engine_, options.limits), admission_(options.admission)
{
}

std::string
Service::handleFrame(const std::string &frame, double t)
{
    obs::ScopedSpan span("serve.handle", "serve");
    obs::MetricsRegistry &registry = obs::metrics();
    registry.counter("serve.frames").add(1);

    if (frame.size() > options_.maxFrameBytes) {
        registry.counter("serve.replies.error").add(1);
        return serializeErrorReply(
            0, ErrorReply{ErrorCode::TooLarge,
                          "frame exceeds " +
                              std::to_string(options_.maxFrameBytes) +
                              " bytes"});
    }

    Request request;
    ErrorReply err;
    if (!parseRequest(frame, request, err)) {
        registry.counter("serve.replies.error").add(1);
        return serializeErrorReply(request.id, err);
    }

    // Synchronous path: this caller is also the worker, so it runs
    // its own request and the queue wait it reports is zero.
    const AdmitDecision decision = admission_.admitNow(request.cls, t);
    if (decision != AdmitDecision::Admit) {
        registry.counter("serve.replies.error").add(1);
        return serializeErrorReply(request.id, admitError(decision));
    }
    const std::string reply = planner_.execute(request);
    registry.counter("serve.replies.ok").add(1);
    return reply;
}

IngestOutcome
Service::ingest(const std::string &frame, std::uint64_t conn,
                double t)
{
    obs::MetricsRegistry &registry = obs::metrics();
    registry.counter("serve.frames").add(1);

    IngestOutcome outcome;
    if (frame.size() > options_.maxFrameBytes) {
        registry.counter("serve.replies.error").add(1);
        outcome.reply = serializeErrorReply(
            0, ErrorReply{ErrorCode::TooLarge,
                          "frame exceeds " +
                              std::to_string(options_.maxFrameBytes) +
                              " bytes"});
        return outcome;
    }

    Request request;
    ErrorReply err;
    if (!parseRequest(frame, request, err)) {
        registry.counter("serve.replies.error").add(1);
        outcome.reply = serializeErrorReply(request.id, err);
        return outcome;
    }

    const AdmitDecision decision =
        admission_.submit(QueuedItem{conn, request, t}, t);
    if (decision != AdmitDecision::Admit) {
        registry.counter("serve.replies.error").add(1);
        outcome.reply =
            serializeErrorReply(request.id, admitError(decision));
        return outcome;
    }
    outcome.queued = true;
    return outcome;
}

std::optional<std::pair<std::uint64_t, std::string>>
Service::processOne(double t)
{
    QueuedItem item;
    if (!admission_.pop(t, item))
        return std::nullopt;
    const std::string reply = planner_.execute(item.request);
    obs::metrics().counter("serve.replies.ok").add(1);
    return std::make_pair(item.conn, reply);
}

} // namespace dronedse::serve
