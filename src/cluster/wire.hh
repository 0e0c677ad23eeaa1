/**
 * @file
 * Cluster wire protocol on top of the length-prefixed frames in
 * common/net.hh. Every connection opens with a hello exchange:
 *
 *   client/router → worker:
 *     {"proto":"gopim.cluster.v1","role":"router",
 *      "envelope":"stable","defaults":"<fp>"}
 *   worker → client/router (accept):
 *     {"type":"hello","proto":"gopim.cluster.v1","defaults":"<fp>"}
 *   worker → client/router (reject): a {"type":"error",...} frame,
 *     then close.
 *
 * The router accepts its own clients the same way (acceptHello).
 *
 * `defaults` is serve::defaultsFingerprint — the cache key the empty
 * request resolves to. A router/worker pair that disagrees on it
 * would silently return different bytes for the same request, so the
 * mismatch is rejected at connect time. After the hello, every frame
 * in is one JSONL request line and every frame out is one JSONL
 * response line, strictly in request order per connection.
 */

#ifndef GOPIM_CLUSTER_WIRE_HH
#define GOPIM_CLUSTER_WIRE_HH

#include <optional>
#include <string>

#include "serve/service.hh"

namespace gopim::cluster {

/** Protocol identifier; bump on any framing/semantic change. */
inline constexpr const char *kProtocolVersion = "gopim.cluster.v1";

/** Decoded hello frame. */
struct Hello
{
    std::string role;       ///< "router" or "client" (informational)
    /** The envelope the hello names (none: the acceptor's default). */
    std::optional<serve::Envelope> envelope;
    std::string defaultsFp; ///< "" = peer skips the check
};

/** The hello payload a connecting client/router sends. */
std::string helloLine(const std::string &role,
                      serve::Envelope envelope,
                      const std::string &defaultsFp);

/** The accepting reply a worker sends. */
std::string helloOkLine(const std::string &defaultsFp);

/**
 * Decode and validate a hello payload; returns "" and fills `out`
 * on success, else a one-line reason (unsupported proto, bad JSON,
 * bad envelope name).
 */
std::string parseHello(const std::string &payload, Hello *out);

/**
 * The accepting side of the hello exchange (worker pump and router):
 * read the peer's hello from `fd`; reject it with protocol_mismatch
 * when parseHello refuses it (or, if `stableOnly`, when it does not
 * ask for the stable envelope), or with defaults_mismatch naming
 * `side` when its fingerprint is not `defaultsFp`; else reply
 * helloOkLine(defaultsFp). Returns the envelope the peer asked for
 * (`defaultEnvelope` if it named none), or nullopt after a rejection
 * or a failed read or write.
 */
std::optional<serve::Envelope>
acceptHello(int fd, const std::string &side,
            const std::string &defaultsFp,
            serve::Envelope defaultEnvelope, bool stableOnly);

/**
 * Validate a worker's hello-ok reply against our fingerprint;
 * "" on success. A {"type":"error"} reply surfaces its message.
 */
std::string checkHelloReply(const std::string &payload,
                            const std::string &expectedFp);

} // namespace gopim::cluster

#endif // GOPIM_CLUSTER_WIRE_HH
