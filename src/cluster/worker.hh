/**
 * @file
 * Worker-side framed transport: serves the cluster wire protocol
 * (hello + length-prefixed JSONL frames) on one connection on top of
 * a serve::Service; gopim_serve --tcp runs it on every connection it
 * accepts. After the hello it runs serve::pumpFrames over the
 * service's submit/ready/finish — the pump stdin streams and the
 * router use — so one router connection keeps the whole worker pool
 * busy without reordering bytes; it counts nothing.
 */

#ifndef GOPIM_CLUSTER_WORKER_HH
#define GOPIM_CLUSTER_WORKER_HH

#include <string>

#include "serve/service.hh"

namespace gopim::cluster {

/** Per-worker transport options. */
struct WorkerOptions
{
    /** serve::defaultsFingerprint of this worker's configuration. */
    std::string defaultsFp;
    /** Envelope when the peer's hello does not name one. */
    serve::Envelope defaultEnvelope = serve::Envelope::Full;
};

/**
 * Handle one framed connection end to end (hello exchange, then
 * pipelined request/response frames until the peer closes).
 */
void
pumpFramedConnection(serve::Service &service, int fd,
                     const WorkerOptions &options);

} // namespace gopim::cluster

#endif // GOPIM_CLUSTER_WORKER_HH
