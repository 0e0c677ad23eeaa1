#include "oracle.hh"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"

namespace perfbench {

namespace {

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const char *const kCellFields[] = {"makespanNs", "energyPj",
                                   "eventsProcessed", "idleFraction",
                                   "blockedNs"};

std::vector<std::string>
splitFields(const std::string &digest)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(digest);
    while (std::getline(in, part, ':'))
        parts.push_back(part);
    return parts;
}

std::string
bitsDigest(const std::vector<double> &values)
{
    std::string bits;
    for (double v : values)
        bits += hex(std::bit_cast<uint64_t>(v));
    return hex(gopim::fnv1a64(bits));
}

} // namespace

std::string
cellDigest(const gopim::core::RunResult &run)
{
    return hex(std::bit_cast<uint64_t>(run.makespanNs)) + ":" +
           hex(std::bit_cast<uint64_t>(run.energyPj)) + ":" +
           hex(run.eventsProcessed) + ":" + bitsDigest(run.idleFraction) +
           ":" + bitsDigest(run.blockedNs);
}

std::string
cellMismatch(const std::string &expected, const std::string &actual)
{
    if (expected == actual)
        return "";
    const auto want = splitFields(expected);
    const auto got = splitFields(actual);
    for (size_t i = 0; i < std::size(kCellFields); ++i)
        if (i >= want.size() || i >= got.size() || want[i] != got[i])
            return kCellFields[i];
    return "digest";
}

std::string
normalizeResponse(const std::string &line, const std::string &id)
{
    const std::string member =
        "\"id\":\"" + gopim::json::escape(id) + "\"";
    const size_t at = line.find(member);
    if (id.empty() || at == std::string::npos)
        return line;
    return line.substr(0, at) + "\"id\":\"" + kIdPlaceholder + "\"" +
           line.substr(at + member.size());
}

std::string
responseDigest(const std::string &line, const std::string &id)
{
    return hex(gopim::fnv1a64(normalizeResponse(line, id)));
}

bool
loadGolden(const std::string &path, Golden *out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "no golden file " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    gopim::json::Value doc;
    if (!gopim::json::Value::parse(buf.str(), &doc, error))
        return false;
    const gopim::json::Value *seed = doc.find("seed");
    const gopim::json::Value *digests = doc.find("digests");
    if (!seed || !digests || !digests->isObject()) {
        *error = path + " lacks seed/digests";
        return false;
    }
    out->seed = static_cast<uint64_t>(seed->asDouble());
    out->digests.clear();
    for (const auto &[key, value] : digests->members())
        out->digests[key] = value.asString();
    return true;
}

bool
writeGolden(const std::string &path, const Golden &golden)
{
    gopim::json::Value digests = gopim::json::Value::object();
    for (const auto &[key, value] : golden.digests)
        digests.set(key, value);
    gopim::json::Value doc = gopim::json::Value::object();
    doc.set("seed", static_cast<double>(golden.seed));
    doc.set("digests", std::move(digests));
    std::ofstream out(path);
    out << doc.dumpIndented() << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
