#include "cluster/wire.hh"

#include "common/json.hh"
#include "common/net.hh"

namespace gopim::cluster {

namespace {

const char *
envelopeName(serve::Envelope envelope)
{
    return envelope == serve::Envelope::Stable ? "stable" : "full";
}

} // namespace

std::string
helloLine(const std::string &role, serve::Envelope envelope,
          const std::string &defaultsFp)
{
    json::Value v = json::Value::object();
    v.set("proto", kProtocolVersion);
    v.set("role", role);
    v.set("envelope", envelopeName(envelope));
    if (!defaultsFp.empty())
        v.set("defaults", defaultsFp);
    return v.dump();
}

std::string
helloOkLine(const std::string &defaultsFp)
{
    json::Value v = json::Value::object();
    v.set("type", "hello");
    v.set("proto", kProtocolVersion);
    v.set("defaults", defaultsFp);
    return v.dump();
}

std::string
parseHello(const std::string &payload, Hello *out)
{
    json::Value body;
    std::string parseError;
    if (!json::Value::parse(payload, &body, &parseError) ||
        !body.isObject())
        return "hello frame is not a JSON object: " + parseError;
    const json::Value *proto = body.find("proto");
    if (!proto || !proto->isString())
        return "hello frame lacks a 'proto' string";
    if (proto->asString() != kProtocolVersion)
        return "unsupported protocol '" + proto->asString() +
               "' (expected " + std::string(kProtocolVersion) + ")";
    Hello hello;
    if (const json::Value *role = body.find("role");
        role && role->isString())
        hello.role = role->asString();
    if (const json::Value *envelope = body.find("envelope")) {
        if (!envelope->isString())
            return "hello 'envelope' must be a string";
        const std::string &name = envelope->asString();
        if (name == "stable")
            hello.envelope = serve::Envelope::Stable;
        else if (name == "full")
            hello.envelope = serve::Envelope::Full;
        else
            return "unknown envelope '" + name +
                   "' (try full or stable)";
    }
    if (const json::Value *fp = body.find("defaults");
        fp && fp->isString())
        hello.defaultsFp = fp->asString();
    *out = std::move(hello);
    return "";
}

std::optional<serve::Envelope>
acceptHello(int fd, const std::string &side,
            const std::string &defaultsFp,
            serve::Envelope defaultEnvelope, bool stableOnly)
{
    std::string payload;
    if (net::readFrame(fd, &payload) != net::IoStatus::Ok)
        return std::nullopt;
    Hello hello;
    std::string problem = parseHello(payload, &hello);
    const serve::Envelope envelope =
        hello.envelope.value_or(defaultEnvelope);
    if (problem.empty() && stableOnly &&
        envelope != serve::Envelope::Stable)
        problem = "the " + side +
                  " serves only the stable envelope (cache counters "
                  "are per-shard)";
    serve::RequestError rejection;
    if (!problem.empty())
        rejection = {"protocol_mismatch", "", problem};
    else if (!hello.defaultsFp.empty() &&
             hello.defaultsFp != defaultsFp)
        rejection = {"defaults_mismatch", "",
                     "serving defaults mismatch: " + side + " '" +
                         defaultsFp + "' vs peer '" + hello.defaultsFp +
                         "' (start both with identical --engine/"
                         "--seed/fault flags)"};
    if (!rejection.ok()) {
        net::writeFrame(fd, serve::errorResponseLine("", rejection));
        return std::nullopt;
    }
    if (!net::writeFrame(fd, helloOkLine(defaultsFp)))
        return std::nullopt;
    return envelope;
}

std::string
checkHelloReply(const std::string &payload,
                const std::string &expectedFp)
{
    json::Value body;
    std::string parseError;
    if (!json::Value::parse(payload, &body, &parseError) ||
        !body.isObject())
        return "hello reply is not a JSON object: " + parseError;
    const json::Value *type = body.find("type");
    if (type && type->isString() && type->asString() == "error") {
        const json::Value *message = body.find("error");
        return message && message->isString()
                   ? message->asString()
                   : std::string("worker rejected the connection");
    }
    if (!type || !type->isString() || type->asString() != "hello")
        return "unexpected hello reply: " + payload;
    const json::Value *proto = body.find("proto");
    if (!proto || !proto->isString() ||
        proto->asString() != kProtocolVersion)
        return "worker speaks an unsupported protocol";
    if (!expectedFp.empty()) {
        const json::Value *fp = body.find("defaults");
        if (!fp || !fp->isString() || fp->asString() != expectedFp)
            return "serving defaults mismatch: worker reports '" +
                   (fp && fp->isString() ? fp->asString()
                                         : std::string("?")) +
                   "', router expects '" + expectedFp +
                   "' (start both with identical --engine/--seed/"
                   "fault flags)";
    }
    return "";
}

} // namespace gopim::cluster
