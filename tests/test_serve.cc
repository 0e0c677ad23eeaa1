/**
 * @file
 * Serving-layer tests: the shared JSON value type, the
 * content-addressed cache key (stable across request field
 * reordering), the LRU result cache, strict request validation, and
 * the Service determinism contract — a cached response carries the
 * exact result bytes a fresh simulation produced, and a concurrent
 * batch emits byte-identical output to a single-threaded run.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "core/options.hh"
#include "obs/metrics.hh"
#include "serve/cache.hh"
#include "serve/request.hh"
#include "serve/service.hh"
#include "sim/engine.hh"

namespace gopim {
namespace {

// ---------------------------------------------------------------
// JSON value type
// ---------------------------------------------------------------

TEST(JsonTest, DumpCompactAndTyped)
{
    json::Value v = json::Value::object();
    v.set("b", true);
    v.set("i", 42);
    v.set("d", 1.5);
    v.set("s", "hi\n");
    json::Value arr = json::Value::array();
    arr.push(1);
    arr.push(json::Value());
    v.set("a", std::move(arr));
    EXPECT_EQ(v.dump(), "{\"b\":true,\"i\":42,\"d\":1.5,"
                        "\"s\":\"hi\\n\",\"a\":[1,null]}");
}

TEST(JsonTest, CanonicalSortsKeysRecursively)
{
    json::Value inner = json::Value::object();
    inner.set("z", 1);
    inner.set("a", 2);
    json::Value v = json::Value::object();
    v.set("outer", std::move(inner));
    v.set("alpha", 3);
    EXPECT_EQ(v.canonical(),
              "{\"alpha\":3,\"outer\":{\"a\":2,\"z\":1}}");
}

TEST(JsonTest, ParseRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null}}";
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Value::parse(text, &v, &error)) << error;
    EXPECT_EQ(v.dump(), text);
    EXPECT_TRUE(v.find("a")->at(0).isInt());
    EXPECT_FALSE(v.find("a")->at(1).isInt());
    EXPECT_DOUBLE_EQ(v.find("a")->at(1).asDouble(), 2.5);
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    json::Value v;
    EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing", &v));
    EXPECT_FALSE(json::Value::parse("{\"a\":}", &v));
    EXPECT_FALSE(json::Value::parse("", &v));
    EXPECT_FALSE(json::Value::parse("{'a':1}", &v));
    EXPECT_FALSE(json::Value::parse("[1,2,]", &v));
}

TEST(JsonTest, NestingLimitIsAParseError)
{
    const auto nestedArrays = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::Value::parse(nestedArrays(json::kMaxParseDepth),
                                   &v, &error))
        << error;
    EXPECT_FALSE(json::Value::parse(
        nestedArrays(json::kMaxParseDepth + 1), &v, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;

    // Objects count towards the same depth as arrays.
    std::string objects;
    for (int i = 0; i < json::kMaxParseDepth; ++i)
        objects += i % 2 ? "[" : "{\"k\":";
    objects += "1";
    for (int i = json::kMaxParseDepth - 1; i >= 0; --i)
        objects += i % 2 ? "]" : "}";
    EXPECT_TRUE(json::Value::parse(objects, &v, &error)) << error;
    EXPECT_FALSE(json::Value::parse("[" + objects + "]", &v, &error));
}

TEST(JsonTest, ParseUnicodeEscapes)
{
    json::Value v;
    ASSERT_TRUE(json::Value::parse("\"\\u0041\\u00e9\"", &v));
    EXPECT_EQ(v.asString(), "A\xc3\xa9");
}

TEST(HashTest, Fnv1aIsStableAndDigestIsHex)
{
    const uint64_t h = fnv1a64("gopim");
    EXPECT_EQ(h, fnv1a64("gopim"));
    EXPECT_NE(h, fnv1a64("gopin"));
    const std::string digest = hexDigest64(h);
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------

TEST(ResultCacheTest, HitMissAndEviction)
{
    serve::ResultCache cache(2);
    EXPECT_FALSE(cache.get("a").has_value());
    cache.put("a", "1");
    cache.put("b", "2");
    EXPECT_EQ(cache.get("a").value(), "1");
    EXPECT_EQ(cache.stats().evictions, 0u);

    // "a" was just promoted, so inserting "c" evicts "b".
    cache.put("c", "3");
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.get("b").has_value());
    EXPECT_EQ(cache.get("a").value(), "1");
    EXPECT_EQ(cache.get("c").value(), "3");
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching)
{
    serve::ResultCache cache(0);
    cache.put("a", "1");
    EXPECT_FALSE(cache.get("a").has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, PutRefreshesExistingEntry)
{
    serve::ResultCache cache(2);
    cache.put("a", "1");
    cache.put("a", "updated");
    EXPECT_EQ(cache.get("a").value(), "updated");
    EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------
// Request parsing and the cache key
// ---------------------------------------------------------------

std::string
keyOf(const std::string &text)
{
    json::Value body;
    std::string error;
    EXPECT_TRUE(json::Value::parse(text, &body, &error)) << error;
    serve::Request request;
    serve::RequestError err =
        serve::parseRequest(body, serve::Request{}, &request);
    EXPECT_TRUE(err.ok()) << err.message;
    serve::ResolvedRequest resolved;
    err = serve::resolveRequest(request, &resolved);
    EXPECT_TRUE(err.ok()) << err.message;
    return serve::cacheKey(resolved,
                           reram::AcceleratorConfig::paperDefault());
}

TEST(CacheKeyTest, StableAcrossFieldReordering)
{
    const std::string a = "{\"dataset\":\"Cora\",\"system\":\"GoPIM\","
                          "\"engine\":\"event\",\"seed\":7}";
    const std::string b = "{\"seed\":7,\"engine\":\"event\","
                          "\"system\":\"GoPIM\",\"dataset\":\"Cora\"}";
    EXPECT_EQ(keyOf(a), keyOf(b));
}

TEST(CacheKeyTest, SensitiveToEveryKnob)
{
    const std::string base = "{\"dataset\":\"Cora\"}";
    EXPECT_NE(keyOf(base), keyOf("{\"dataset\":\"ddi\"}"));
    EXPECT_NE(keyOf(base), keyOf("{\"dataset\":\"Cora\","
                                 "\"engine\":\"event\"}"));
    EXPECT_NE(keyOf(base), keyOf("{\"dataset\":\"Cora\",\"seed\":9}"));
    EXPECT_NE(keyOf(base),
              keyOf("{\"dataset\":\"Cora\",\"theta\":0.5}"));
    EXPECT_NE(keyOf(base),
              keyOf("{\"dataset\":\"Cora\",\"baseline\":\"Serial\"}"));
    // Fault knobs are part of the key: a repaired run must never be
    // served a healthy run's cached result.
    EXPECT_NE(keyOf(base),
              keyOf("{\"dataset\":\"Cora\","
                    "\"stuck_on_rate\":0.01}"));
    EXPECT_NE(keyOf("{\"dataset\":\"Cora\",\"stuck_on_rate\":0.01}"),
              keyOf("{\"dataset\":\"Cora\",\"stuck_on_rate\":0.01,"
                    "\"repair\":\"ecc\"}"));
    EXPECT_NE(keyOf("{\"dataset\":\"Cora\",\"stuck_on_rate\":0.01,"
                    "\"repair\":\"spare\",\"spare_rows\":0.05}"),
              keyOf("{\"dataset\":\"Cora\",\"stuck_on_rate\":0.01,"
                    "\"repair\":\"spare\",\"spare_rows\":0.1}"));
}

TEST(CacheKeyTest, DigestsMatchGoldenTable)
{
    // Pinned digests: the key is how a repeat finds its result, and
    // the cluster router and its shards must compute it alike, so
    // any byte change to the canonical config shows here. Bodies
    // cover every family, engine and fault knob, theta, baselines,
    // seeds and micro-batch sizes.
    struct Case
    {
        const char *body;
        const char *key;
    };
    const Case cases[] = {
        {R"({})", "2201bd832127cb20"},
        {R"({"dataset":"Cora"})", "134c6763d44ba50e"},
        {R"({"dataset":"collab"})", "80daf2cff80bc9fd"},
        {R"({"dataset":"ppa"})", "8db4023caaac5e80"},
        {R"({"dataset":"proteins"})", "1fd9fe79023939f2"},
        {R"({"dataset":"arxiv"})", "7249809dcc333932"},
        {R"({"dataset":"products"})", "cf08ceeabac1d051"},
        {R"({"system":"Serial"})", "bfef36ef4b2e1ffa"},
        {R"({"system":"SlimGNN-like"})", "4b5f8ee2690ce00d"},
        {R"({"system":"ReGraphX"})", "b805973615c42ce8"},
        {R"({"system":"ReFlip"})", "98cbcd0e9ef13d2e"},
        {R"({"system":"GoPIM-Vanilla"})", "76eae476902a06d0"},
        {R"({"system":"+PP"})", "1565887b1f5ad8a7"},
        {R"({"system":"+ISU"})", "3db67c3d8c2273e4"},
        {R"({"system":"Naive"})", "548e9a07de51d6d0"},
        {R"({"engine":"closed"})", "2201bd832127cb20"},
        {R"({"engine":"event"})", "7410698426a28f34"},
        {R"({"engine":"replay"})", "cf8c385f328d1f42"},
        {R"({"dataset":"collab","engine":"event","retry_prob":0.2})",
         "584921b71a124cb7"},
        {R"({"engine":"event","write_fraction":0.5})", "89e22b6fe4d862b3"},
        {R"({"engine":"event","buffer_slots":4})", "2bdf359e872b5be9"},
        {R"({"engine":"event","buffer_slots":-1})", "7410698426a28f34"},
        {R"({"theta":0.5})", "8b982ac2e1ecbbb3"},
        {R"({"theta":0.25,"system":"ReGraphX"})", "1e88ca2b35646844"},
        {R"({"theta":1.0})", "8855d28ff4be06a5"},
        {R"({"stuck_on_rate":0.001})", "5ab0d496d3d5250d"},
        {R"({"stuck_off_rate":0.002})", "6d4cb1f60c06e5f4"},
        {R"({"drift_rate":0.01})", "ed990a06fb5ce72f"},
        {R"({"stuck_on_rate":0.001,"repair":"none"})", "5ab0d496d3d5250d"},
        {R"({"stuck_on_rate":0.001,"repair":"spare-rows"})",
         "f674b3aed7dc0ec0"},
        {R"({"stuck_on_rate":0.001,"repair":"ecc-dup"})", "bb8260c326bf5ef2"},
        {R"({"stuck_on_rate":0.001,"repair":"spare","spare_rows":0.1})",
         "c28cec3c8e8b8f80"},
        {R"({"stuck_on_rate":0.001,"refresh_period":16})", "f05e38352d296c7a"},
        {R"({"baseline":"Serial"})", "176c788b38c380ac"},
        {R"({"baseline":"ReGraphX","dataset":"Cora"})", "d2ccf440d5700dcd"},
        {R"({"seed":0})", "fcbb3423a405989a"},
        {R"({"seed":7})", "c1d14987094e7954"},
        {R"({"seed":123456789})", "eba14ed631e576a8"},
        {R"({"micro_batch":16})", "a683dc305de539f1"},
        {R"({"micro_batch":128,"epochs":2})", "a455179f67b17b9a"},
        {R"({"workload":"gnn-infer","dataset":"Cora"})", "5fb7a6b20f5b2936"},
        {R"({"workload":"gnn-infer","dataset":"Cora","partition":"row"})",
         "5fb7a6b20f5b2936"},
        {R"({"workload":"gnn-infer","dataset":"Cora","partition":"col"})",
         "96ff50789ddd25b0"},
        {R"({"workload":"gnn-infer","dataset":"Cora","partition":"nnz"})",
         "20bef3b61ac3e5fe"},
        {R"({"workload":"gnn-infer","dataset":"ddi","partition":"col",)"
         R"("engine":"event","seed":3})",
         "91c853e05d99f5d4"},
        {R"({"workload":"gnn-infer","dataset":"collab","baseline":"Serial"})",
         "2121c64db974504d"},
        {R"({"workload":"gnn-infer","dataset":"Cora","micro_batch":16,)"
         R"("engine":"replay"})",
         "092a35bca6788ec1"},
        {R"({"workload":"cnn-infer"})", "697dd46fe4c3738f"},
        {R"({"workload":"cnn-infer","dataset":"mnist"})", "87df87fa508189af"},
        {R"({"workload":"cnn-infer","dataset":"cifar"})", "697dd46fe4c3738f"},
        {R"({"workload":"cnn-infer","dataset":"tiny-imagenet"})",
         "0a44771a5969490f"},
        {R"({"workload":"cnn-infer","baseline":"Serial"})", "da733a38ace407cb"},
        {R"({"workload":"cnn-infer","system":"ReGraphX","engine":"event",)"
         R"("seed":9})",
         "b0c5ed7fc14fe5bb"},
        {R"({"workload":"cnn-infer","micro_batch":8,"partition":"col"})",
         "ec934abbf1c68af5"},
    };
    size_t checked = 0;
    for (const Case &c : cases) {
        EXPECT_EQ(keyOf(c.body), c.key) << c.body;
        ++checked;
    }
    EXPECT_GE(checked, 50u);

    const reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    serve::Request defaults;
    EXPECT_EQ(serve::defaultsFingerprint(defaults, hw), "2201bd832127cb20");
    defaults.sim.engine = sim::EngineKind::EventDriven;
    defaults.sim.seed = 2;
    defaults.fault.params.stuckOnRate = 0.01;
    EXPECT_EQ(serve::defaultsFingerprint(defaults, hw), "c991dd7cf91dba39");
}

TEST(CacheKeyTest, IdAndTraceOutDoNotAffectTheKey)
{
    const std::string plain = "{\"dataset\":\"Cora\"}";
    const std::string decorated =
        "{\"dataset\":\"Cora\",\"id\":\"req-1\","
        "\"trace_out\":\"/tmp/t.json\"}";
    EXPECT_EQ(keyOf(plain), keyOf(decorated));
}

serve::RequestError
parseErrorOf(const std::string &text)
{
    json::Value body;
    std::string error;
    EXPECT_TRUE(json::Value::parse(text, &body, &error)) << error;
    serve::Request request;
    return serve::parseRequest(body, serve::Request{}, &request);
}

TEST(RequestTest, RejectsUnknownAndMalformedFields)
{
    EXPECT_EQ(parseErrorOf("{\"datset\":\"ddi\"}").code,
              "unknown_field");
    EXPECT_EQ(parseErrorOf("{\"dataset\":42}").code, "bad_type");
    EXPECT_EQ(parseErrorOf("{\"dataset\":\"nope\"}").code,
              "unknown_name");
    EXPECT_EQ(parseErrorOf("{\"system\":\"nope\"}").code,
              "unknown_name");
    EXPECT_EQ(parseErrorOf("{\"engine\":\"nope\"}").code,
              "unknown_name");
    EXPECT_EQ(parseErrorOf("{\"retry_prob\":1.0}").code,
              "out_of_range");
    EXPECT_EQ(parseErrorOf("{\"write_fraction\":1.5}").code,
              "out_of_range");
    EXPECT_EQ(parseErrorOf("{\"micro_batch\":0}").code,
              "out_of_range");
    EXPECT_TRUE(parseErrorOf("{\"retry_prob\":0.5,"
                             "\"write_fraction\":1.0}")
                    .ok());
}

TEST(RequestTest, UnknownFieldNamesTheOffendingKey)
{
    const serve::RequestError err =
        parseErrorOf("{\"dataset\":\"Cora\",\"spare_rws\":0.1}");
    EXPECT_EQ(err.code, "unknown_field");
    EXPECT_EQ(err.field, "spare_rws");
    EXPECT_NE(err.message.find("spare_rws"), std::string::npos);
}

TEST(RequestTest, UnknownFieldSuggestsNearestKnownKey)
{
    // A near-miss spelling gets a did-you-mean pointing at the real
    // field...
    const serve::RequestError typo =
        parseErrorOf("{\"datset\":\"ddi\"}");
    EXPECT_EQ(typo.code, "unknown_field");
    EXPECT_NE(typo.message.find("did you mean 'dataset'"),
              std::string::npos)
        << typo.message;
    const serve::RequestError typo2 =
        parseErrorOf("{\"micro_bath\":32}");
    EXPECT_NE(typo2.message.find("did you mean 'micro_batch'"),
              std::string::npos)
        << typo2.message;
    // ...while an unrelated key lists the schema instead of guessing.
    const serve::RequestError far =
        parseErrorOf("{\"zzzzzzzz\":1}");
    EXPECT_EQ(far.code, "unknown_field");
    EXPECT_EQ(far.message.find("did you mean"), std::string::npos)
        << far.message;
    EXPECT_NE(far.message.find("known fields"), std::string::npos)
        << far.message;
}

TEST(RequestTest, DefaultsFingerprintTracksExecutionDefaults)
{
    const reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    serve::Request a;
    serve::Request b;
    EXPECT_EQ(serve::defaultsFingerprint(a, hw),
              serve::defaultsFingerprint(b, hw));
    // Any default a request may inherit must move the fingerprint.
    b.sim.seed = a.sim.seed + 1;
    EXPECT_NE(serve::defaultsFingerprint(a, hw),
              serve::defaultsFingerprint(b, hw));
}

TEST(RequestTest, RequestDefaultsDependOnlyOnSharedSimFlags)
{
    // gopim_serve and gopim_router declare different tool flags on
    // top of core::addSimFlags. The cluster hello compares their
    // defaultsFingerprint, so the defaults must come from the shared
    // flags alone, and a shared flag such as --seed or
    // --stuck-on-rate must move the fingerprint.
    const auto fingerprint = [](bool router,
                                std::vector<const char *> args) {
        Flags flags(router ? "gopim_router" : "gopim_serve", "test");
        if (router) {
            flags.addInt("workers", 0, "shards to spawn");
            flags.addInt("max-inflight", 64, "admission bound");
        } else {
            flags.addInt("cache-capacity", 256, "cache entries");
            flags.addString("envelope", "full", "envelope mode");
        }
        core::addSimFlags(flags);
        args.insert(args.begin(), "test");
        EXPECT_TRUE(
            flags.parse(static_cast<int>(args.size()), args.data()));
        return serve::defaultsFingerprint(
            serve::requestDefaults(flags),
            reram::AcceleratorConfig::paperDefault());
    };
    const std::string serveFp = fingerprint(
        false, {"--engine=event", "--cache-capacity=8",
                "--envelope=stable"});
    EXPECT_EQ(serveFp,
              fingerprint(true, {"--engine=event", "--workers=3",
                                 "--max-inflight=4"}));
    EXPECT_NE(serveFp,
              fingerprint(false, {"--engine=event", "--seed=2"}));
    EXPECT_NE(serveFp, fingerprint(true, {"--engine=event",
                                          "--stuck-on-rate=0.01"}));
}

TEST(RequestTest, FaultKnobsParseAndValidate)
{
    EXPECT_TRUE(parseErrorOf("{\"dataset\":\"Cora\","
                             "\"stuck_on_rate\":0.01,"
                             "\"stuck_off_rate\":0.02,"
                             "\"drift_rate\":0.001,"
                             "\"repair\":\"spare\","
                             "\"spare_rows\":0.1,"
                             "\"refresh_period\":128}")
                    .ok());
    EXPECT_EQ(parseErrorOf("{\"stuck_on_rate\":1.0}").code,
              "out_of_range");
    EXPECT_EQ(parseErrorOf("{\"stuck_off_rate\":-0.1}").code,
              "out_of_range");
    EXPECT_EQ(parseErrorOf("{\"repair\":\"nope\"}").code,
              "unknown_name");
    EXPECT_EQ(parseErrorOf("{\"repair\":42}").code, "bad_type");
    EXPECT_EQ(parseErrorOf("{\"refresh_period\":0}").code,
              "out_of_range");
}

TEST(RequestTest, DefaultsInheritServerContext)
{
    serve::Request defaults;
    defaults.sim.engine = sim::EngineKind::EventDriven;
    defaults.sim.seed = 99;
    json::Value body;
    ASSERT_TRUE(json::Value::parse("{\"dataset\":\"Cora\"}", &body));
    serve::Request request;
    ASSERT_TRUE(serve::parseRequest(body, defaults, &request).ok());
    EXPECT_EQ(request.sim.engine, sim::EngineKind::EventDriven);
    EXPECT_EQ(request.sim.seed, 99u);
    EXPECT_EQ(request.dataset, "Cora");
}

// ---------------------------------------------------------------
// Service: determinism and caching
// ---------------------------------------------------------------

/** The serialized result object embedded in a response line. */
std::string
resultPayload(const std::string &line)
{
    const std::string marker = "\"result\":";
    const size_t pos = line.find(marker);
    EXPECT_NE(pos, std::string::npos) << line;
    if (pos == std::string::npos)
        return "";
    // Strip the envelope's closing brace.
    return line.substr(pos + marker.size(),
                       line.size() - pos - marker.size() - 1);
}

bool
lineSays(const std::string &line, const std::string &fragment)
{
    return line.find(fragment) != std::string::npos;
}

TEST(ServiceTest, CachedResponseMatchesFreshRunBothEngines)
{
    for (const char *engine : {"closed", "event"}) {
        serve::ServiceConfig config;
        config.jobs = 1;
        serve::Service service(config);
        const std::string line =
            std::string("{\"dataset\":\"Cora\",\"engine\":\"") +
            engine + "\",\"baseline\":\"Serial\"}";

        const std::string fresh = service.handleLine(line);
        const std::string cached = service.handleLine(line);
        EXPECT_TRUE(lineSays(fresh, "\"cached\":false")) << fresh;
        EXPECT_TRUE(lineSays(cached, "\"cached\":true")) << cached;
        EXPECT_TRUE(lineSays(cached, "\"hits\":1")) << cached;
        EXPECT_TRUE(lineSays(cached, "\"misses\":1")) << cached;
        EXPECT_EQ(resultPayload(fresh), resultPayload(cached))
            << "engine " << engine;
        EXPECT_EQ(service.hits(), 1u);
        EXPECT_EQ(service.misses(), 1u);

        // The payload is itself valid JSON with a speedup field.
        json::Value result;
        std::string error;
        ASSERT_TRUE(
            json::Value::parse(resultPayload(fresh), &result, &error))
            << error;
        EXPECT_TRUE(result.find("speedup") != nullptr);
        EXPECT_EQ(result.find("baseline")->asString(), "Serial");
    }
}

TEST(ServiceTest, StableEnvelopeIsHistoryIndependent)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    serve::Service service(config);
    const std::string line =
        "{\"id\":\"s1\",\"dataset\":\"Cora\"}";

    const std::string fresh =
        service.handleLine(line, serve::Envelope::Stable);
    const std::string cached =
        service.handleLine(line, serve::Envelope::Stable);
    // A hit and a miss render identically: the stable envelope is a
    // pure function of (id, key, result) — the property that keeps
    // cluster shards byte-comparable to a single process.
    EXPECT_EQ(fresh, cached);
    for (const char *counter : {"\"cached\":", "\"hits\":",
                                "\"misses\":", "\"trace\":"})
        EXPECT_EQ(fresh.find(counter), std::string::npos)
            << counter << " leaked into " << fresh;
    EXPECT_TRUE(lineSays(fresh, "\"id\":\"s1\"")) << fresh;
    EXPECT_TRUE(lineSays(fresh, "\"key\":\"")) << fresh;
    EXPECT_TRUE(lineSays(fresh, "\"result\":")) << fresh;

    // The Full envelope still carries the live cache metadata.
    const std::string full = service.handleLine(line);
    EXPECT_TRUE(lineSays(full, "\"cached\":true")) << full;
    // Same result payload either way.
    EXPECT_EQ(resultPayload(fresh), resultPayload(full));
}

TEST(ServiceTest, ErrorLineForBadRequests)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    serve::Service service(config);
    const std::string bad =
        service.handleLine("{\"id\":\"r7\",\"dataset\":\"nope\"}");
    EXPECT_TRUE(lineSays(bad, "\"type\":\"error\"")) << bad;
    EXPECT_TRUE(lineSays(bad, "\"id\":\"r7\"")) << bad;
    EXPECT_TRUE(lineSays(bad, "\"code\":\"unknown_name\"")) << bad;
    const std::string garbage = service.handleLine("not json");
    EXPECT_TRUE(lineSays(garbage, "\"code\":\"bad_json\"")) << garbage;
    EXPECT_TRUE(lineSays(garbage, "invalid JSON")) << garbage;
}

TEST(ServiceTest, ErrorLineCarriesStructuredCodeAndField)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    serve::Service service(config);
    const std::string line = service.handleLine(
        "{\"id\":\"r9\",\"dataset\":\"Cora\",\"bogus_knob\":1}");
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Value::parse(line, &v, &error)) << error;
    EXPECT_EQ(v.find("type")->asString(), "error");
    EXPECT_EQ(v.find("id")->asString(), "r9");
    EXPECT_EQ(v.find("code")->asString(), "unknown_field");
    EXPECT_EQ(v.find("field")->asString(), "bogus_knob");
    ASSERT_TRUE(v.find("error") != nullptr);
    EXPECT_NE(v.find("error")->asString().find("bogus_knob"),
              std::string::npos);
}

TEST(ServiceTest, EpochsWhoseMicroBatchTotalWrapsAreOutOfRange)
{
    // ddi at micro-batch 64 has 67 micro-batches per epoch, so
    // 64103990 epochs would count 2^32 + 34 micro-batches: a 32-bit
    // total wraps to 34 and would answer a one-epoch-sized makespan.
    serve::ServiceConfig config;
    config.jobs = 1;
    serve::Service service(config);
    const std::string line = service.handleLine(
        "{\"id\":\"big\",\"dataset\":\"ddi\",\"epochs\":64103990}");
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Value::parse(line, &v, &error)) << error;
    EXPECT_EQ(v.find("type")->asString(), "error");
    EXPECT_EQ(v.find("code")->asString(), "out_of_range");
    ASSERT_TRUE(v.find("error") != nullptr);
    EXPECT_NE(v.find("error")->asString().find("epochs"),
              std::string::npos);
}

/** A mixed 100-request batch with heavy duplication. */
std::string
mixedBatch()
{
    const char *datasets[] = {"Cora", "ddi"};
    const char *systems[] = {"GoPIM", "Serial"};
    const char *engines[] = {"closed", "event"};
    std::string batch;
    for (int i = 0; i < 100; ++i) {
        // 12 unique request shapes, each repeated ~8 times so the
        // batch exercises both the cache and in-flight coalescing.
        const int u = i % 12;
        batch += "{\"id\":\"req-" + std::to_string(i) +
                 "\",\"dataset\":\"" + datasets[u % 2] +
                 "\",\"system\":\"" + systems[(u / 2) % 2] +
                 "\",\"engine\":\"" + engines[(u / 4) % 2] +
                 "\",\"seed\":" + std::to_string(1 + u / 8) + "}\n";
    }
    return batch;
}

/** Run the batch through a Service with `jobs` workers. */
std::string
runBatch(size_t jobs, serve::Service::StreamStats *stats = nullptr)
{
    serve::ServiceConfig config;
    config.jobs = jobs;
    serve::Service service(config);
    std::istringstream in(mixedBatch());
    std::ostringstream out;
    const auto streamStats = service.processStream(in, out, true);
    if (stats)
        *stats = streamStats;
    return out.str();
}

TEST(ServiceTest, ConcurrentBatchIsBitIdenticalToSerial)
{
    serve::Service::StreamStats serialStats;
    const std::string serial = runBatch(1, &serialStats);
    const std::string concurrent = runBatch(4);
    EXPECT_EQ(serial, concurrent);
    EXPECT_EQ(serialStats.requests, 100u);
    EXPECT_EQ(serialStats.errors, 0u);

    // 12 unique request shapes -> 12 misses, 88 hits, and the final
    // stats line records them.
    std::istringstream lines(serial);
    std::string line, last;
    size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        last = line;
    }
    EXPECT_EQ(count, 101u); // 100 responses + stats line
    json::Value statsLine;
    std::string error;
    ASSERT_TRUE(json::Value::parse(last, &statsLine, &error)) << error;
    EXPECT_EQ(statsLine.find("type")->asString(), "stats");
    EXPECT_EQ(statsLine.find("misses")->asInt(), 12);
    EXPECT_EQ(statsLine.find("hits")->asInt(), 88);
    EXPECT_EQ(statsLine.find("cache_entries")->asInt(), 12);
}

TEST(ServiceTest, BackpressureBoundsInFlightWork)
{
    // A queue bound of 1 with 2 workers forces the dispatcher to
    // block between submissions; the stream must still complete with
    // responses in input order.
    serve::ServiceConfig config;
    config.jobs = 2;
    config.maxQueue = 1;
    serve::Service service(config);
    std::string batch;
    for (int seed = 1; seed <= 6; ++seed)
        batch += "{\"id\":\"s" + std::to_string(seed) +
                 "\",\"dataset\":\"Cora\",\"seed\":" +
                 std::to_string(seed) + "}\n";
    std::istringstream in(batch);
    std::ostringstream out;
    const auto stats = service.processStream(in, out);
    EXPECT_EQ(stats.requests, 6u);
    EXPECT_EQ(stats.errors, 0u);
    std::istringstream lines(out.str());
    std::string line;
    for (int seed = 1; seed <= 6; ++seed) {
        ASSERT_TRUE(std::getline(lines, line));
        EXPECT_TRUE(
            lineSays(line, "\"id\":\"s" + std::to_string(seed) + "\""))
            << line;
    }
    EXPECT_EQ(service.misses(), 6u);
}

/** A fault-enabled batch: rates x repair policies, duplicated. */
std::string
faultBatch()
{
    const char *repairs[] = {"none", "spare", "ecc", "refresh"};
    const char *rates[] = {"0.001", "0.01"};
    std::string batch;
    int id = 0;
    for (int pass = 0; pass < 2; ++pass)
        for (const char *rate : rates)
            for (const char *repair : repairs)
                batch += "{\"id\":\"f" + std::to_string(id++) +
                         "\",\"dataset\":\"Cora\",\"system\":"
                         "\"GoPIM\",\"stuck_on_rate\":" +
                         rate + ",\"repair\":\"" + repair + "\"}\n";
    return batch;
}

TEST(ServiceTest, FaultBatchIsBitIdenticalAcrossWorkerCounts)
{
    std::string outputs[2];
    size_t jobs[] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        serve::ServiceConfig config;
        config.jobs = jobs[i];
        serve::Service service(config);
        std::istringstream in(faultBatch());
        std::ostringstream out;
        const auto stats = service.processStream(in, out, true);
        EXPECT_EQ(stats.errors, 0u);
        EXPECT_EQ(service.misses(), 8u); // 2 rates x 4 repairs
        EXPECT_EQ(service.hits(), 8u);   // second pass all cached
        outputs[i] = out.str();
    }
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_TRUE(lineSays(outputs[0], "\"repair_policy\":\"ecc-dup\""))
        << outputs[0];
}

TEST(ServiceTest, DeeplyNestedLineIsABadJsonError)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    serve::Service service(config);
    const std::string bad =
        service.handleLine(std::string(1 << 20, '['));
    EXPECT_TRUE(lineSays(bad, "\"type\":\"error\"")) << bad;
    EXPECT_TRUE(lineSays(bad, "\"code\":\"bad_json\"")) << bad;
    EXPECT_TRUE(lineSays(bad, "nesting deeper than")) << bad;

    const std::string next =
        service.handleLine("{\"id\":\"n\",\"dataset\":\"Cora\"}");
    EXPECT_TRUE(lineSays(next, "\"type\":\"result\"")) << next;
    EXPECT_TRUE(lineSays(next, "\"id\":\"n\"")) << next;
}

TEST(ServiceTest, EvictionsStayOutOfResponseEnvelopes)
{
    // Capacity 1 forces evictions; the per-response envelope must not
    // leak them (they are a property of the memo, not of the request;
    // the stats line reports them).
    serve::ServiceConfig config;
    config.jobs = 1;
    config.cacheCapacity = 1;
    serve::Service service(config);
    const std::string a =
        service.handleLine("{\"dataset\":\"Cora\"}");
    const std::string b = service.handleLine("{\"dataset\":\"ddi\"}");
    EXPECT_FALSE(lineSays(a, "eviction"));
    EXPECT_FALSE(lineSays(b, "eviction"));
    EXPECT_EQ(service.cacheStats().evictions, 1u);

    // The evicted entry re-simulates to the same bytes.
    const std::string again =
        service.handleLine("{\"dataset\":\"Cora\"}");
    EXPECT_TRUE(lineSays(again, "\"cached\":false"));
    EXPECT_EQ(resultPayload(a), resultPayload(again));
}

// ---------------------------------------------------------------
// Service: in-flight window, lock scope, and the stats extension
// ---------------------------------------------------------------

/**
 * Deterministic constant-time timing backend: the timeline is a pure
 * function of the request, so responses stay byte-identical across
 * worker counts while a simulation costs microseconds instead of
 * running a real engine — which is what lets the stress test push
 * tens of thousands of unique requests through the service.
 */
class StubEngine final : public sim::ScheduleEngine
{
  public:
    std::string name() const override { return "stub"; }

    sim::StageTimeline
    schedule(const sim::ScheduleRequest &request,
             const sim::SimContext &) const override
    {
        sim::StageTimeline timeline;
        double total = 0.0;
        for (double t : request.stageTimesNs)
            total += t;
        timeline.makespanNs =
            total * static_cast<double>(request.totalMicroBatches);
        timeline.busyNs = request.stageTimesNs;
        timeline.blockedNs.assign(request.stageTimesNs.size(), 0.0);
        timeline.idleFraction.assign(request.stageTimesNs.size(), 0.0);
        return timeline;
    }
};

/** `count` unique requests (distinct seeds -> distinct cache keys). */
std::string
uniqueBatch(int count)
{
    std::string batch;
    for (int seed = 1; seed <= count; ++seed)
        batch += "{\"dataset\":\"Cora\",\"seed\":" +
                 std::to_string(seed) + "}\n";
    return batch;
}

TEST(ServiceStressTest, InflightStaysBoundedOverUniqueStream)
{
    // A long stream of distinct requests must not grow the service:
    // the result memo (finished and running results alike) holds at
    // most cacheCapacity entries, and the submitted-but-unfinished
    // simulations stay within the backpressure bound.
    constexpr int kRequests = 10000;
    serve::ServiceConfig config;
    config.jobs = 4;
    config.maxQueue = 8;
    config.cacheCapacity = 64; // far smaller than the stream
    config.defaults.sim.engineOverride =
        std::make_shared<StubEngine>();
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    serve::Service service(config);

    std::istringstream in(uniqueBatch(kRequests));
    std::ostringstream out;
    const auto stats = service.processStream(in, out, true);
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(service.misses(), static_cast<uint64_t>(kRequests));
    EXPECT_EQ(service.hits(), 0u);

    const auto memo = service.cacheStats();
    EXPECT_EQ(memo.capacity, config.cacheCapacity);
    EXPECT_EQ(memo.entries, config.cacheCapacity);
    EXPECT_EQ(memo.evictions,
              static_cast<uint64_t>(kRequests) - config.cacheCapacity);

    // The high-water mark of unfinished simulations over the whole
    // stream: backpressure admits at most maxQueue.
    const size_t bound = config.maxQueue;
    const obs::Gauge *highWater =
        config.metrics->findGauge("serve.inflight.max");
    ASSERT_NE(highWater, nullptr);
    EXPECT_GT(highWater->value(), 0);
    EXPECT_LE(highWater->value(), static_cast<int64_t>(bound));
}

/**
 * 60 gcn-train requests over three datasets and four seeds, twelve
 * keys visited five times in shifting orders, with a stats query
 * every ten lines. At capacities far below twelve, repeats land
 * both on running and on evicted results.
 */
std::string
evictingStream()
{
    const char *datasets[] = {"Cora", "ddi", "collab"};
    std::string stream;
    for (int pass = 0; pass < 5; ++pass) {
        for (int i = 0; i < 12; ++i) {
            const int k = (5 * i + 7 * pass) % 12;
            stream += std::string(R"({"dataset":")") + datasets[k % 3] +
                      R"(","seed":)" + std::to_string(1 + k / 3) + "}\n";
            if ((12 * pass + i) % 10 == 9)
                stream += R"({"type":"stats"})" "\n";
        }
    }
    return stream;
}

TEST(ServiceTest, FullEnvelopeIsIdenticalAcrossJobsAtEvictingCapacities)
{
    // Every hit, miss and eviction is decided on the dispatcher in
    // input order, so even the Full envelope ("cached", running
    // counters) and the stats lines (memo entries, evictions) are a
    // function of the stream alone — for any worker count, run after
    // run.
    const std::string stream = evictingStream();
    for (const size_t capacity : {1, 2}) {
        std::string reference;
        for (const size_t jobs : {1, 4}) {
            for (int repeat = 0; repeat < 3; ++repeat) {
                serve::ServiceConfig config;
                config.jobs = jobs;
                config.cacheCapacity = capacity;
                serve::Service service(config);
                std::istringstream in(stream);
                std::ostringstream out;
                const auto stats = service.processStream(in, out, true);
                EXPECT_EQ(stats.errors, 0u) << out.str();
                if (reference.empty())
                    reference = out.str();
                EXPECT_EQ(out.str(), reference)
                    << "capacity " << capacity << ", jobs " << jobs
                    << ", repeat " << repeat;
            }
        }
        EXPECT_TRUE(lineSays(reference, "\"cached\":true")) << reference;
        EXPECT_FALSE(lineSays(reference, "\"cache_evictions\":0"))
            << reference;
    }
}

TEST(ServiceStressTest, UniqueStreamIsBitIdenticalAcrossJobs)
{
    constexpr int kRequests = 10000;
    std::string outputs[2];
    const size_t jobs[] = {2, 8};
    for (int i = 0; i < 2; ++i) {
        serve::ServiceConfig config;
        config.jobs = jobs[i];
        config.defaults.sim.engineOverride =
            std::make_shared<StubEngine>();
        serve::Service service(config);
        std::istringstream in(uniqueBatch(kRequests));
        std::ostringstream out;
        const auto stats = service.processStream(in, out, true);
        EXPECT_EQ(stats.errors, 0u);
        outputs[i] = out.str();
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

/**
 * A timing backend that blocks inside schedule() until released —
 * pins a worker (and with maxQueue=1, the dispatcher) at a known
 * place so tests can probe the service from outside.
 */
class GateEngine final : public sim::ScheduleEngine
{
  public:
    std::string name() const override { return "gate"; }

    sim::StageTimeline
    schedule(const sim::ScheduleRequest &request,
             const sim::SimContext &ctx) const override
    {
        entered_.fetch_add(1);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return open_; });
        }
        return StubEngine().schedule(request, ctx);
    }

    void
    release() const
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

    int entered() const { return entered_.load(); }

  private:
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable bool open_ = false;
    mutable std::atomic<int> entered_{0};
};

TEST(ServiceTest, StatsStayResponsiveWhileDispatcherIsBlocked)
{
    // Regression: dispatch() used to hold dispatchMutex_ across the
    // backpressure wait, so once the queue filled, hits()/misses()/
    // statsJson() blocked until a worker finished. The wait now
    // happens outside the lock; counters must answer immediately even
    // with the dispatcher parked on a full queue.
    auto gate = std::make_shared<GateEngine>();
    serve::ServiceConfig config;
    config.jobs = 1;
    config.maxQueue = 1;
    config.defaults.sim.engineOverride = gate;
    serve::Service service(config);

    std::istringstream in(uniqueBatch(3));
    std::ostringstream out;
    std::thread stream([&] { service.processStream(in, out); });

    // Wait for the lone worker to block inside the gate, then give
    // the dispatcher time to reach the queue wait for request 2.
    while (gate->entered() == 0)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    auto probe = std::async(std::launch::async, [&] {
        return std::make_pair(service.misses(),
                              service.statsJson({}).dump());
    });
    ASSERT_EQ(probe.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "stats blocked behind the dispatcher's backpressure wait";
    const auto [misses, statsLine] = probe.get();
    EXPECT_EQ(misses, 2u); // request 2's decision landed pre-wait
    EXPECT_NE(statsLine.find("\"misses\":2"), std::string::npos)
        << statsLine;

    gate->release();
    stream.join();
    EXPECT_EQ(service.misses(), 3u);

    // All three responses were still emitted, in order.
    std::istringstream lines(out.str());
    std::string line;
    for (int seed = 1; seed <= 3; ++seed) {
        ASSERT_TRUE(std::getline(lines, line));
        EXPECT_TRUE(lineSays(line, "\"type\":\"result\"")) << line;
    }
}

TEST(ServiceTest, StatsQueryAnswersInStreamOrder)
{
    serve::ServiceConfig config;
    config.jobs = 2;
    config.defaults.sim.engineOverride =
        std::make_shared<StubEngine>();
    serve::Service service(config);

    const std::string batch =
        "{\"dataset\":\"Cora\",\"seed\":1}\n"
        "{\"dataset\":\"Cora\",\"seed\":1}\n"
        "{\"type\":\"stats\"}\n"
        "{\"dataset\":\"Cora\",\"seed\":2}\n";
    std::istringstream in(batch);
    std::ostringstream out;
    const auto stats = service.processStream(in, out);
    EXPECT_EQ(stats.requests, 4u); // the query counts as a request
    EXPECT_EQ(stats.errors, 0u);

    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(lineSays(lines[0], "\"type\":\"result\""));
    EXPECT_TRUE(lineSays(lines[1], "\"cached\":true"));

    // The third line is the snapshot: dispatch-order deterministic
    // counters (itself included in `requests`), live cache fields.
    json::Value snapshot;
    std::string error;
    ASSERT_TRUE(json::Value::parse(lines[2], &snapshot, &error))
        << error << ": " << lines[2];
    EXPECT_EQ(snapshot.find("type")->asString(), "stats");
    EXPECT_EQ(snapshot.find("requests")->asInt(), 3);
    EXPECT_EQ(snapshot.find("hits")->asInt(), 1);
    EXPECT_EQ(snapshot.find("misses")->asInt(), 1);
    EXPECT_NE(snapshot.find("cache_entries"), nullptr);
    EXPECT_TRUE(lineSays(lines[3], "\"type\":\"result\""));

    // A stats query is not a simulation: no hit/miss movement.
    EXPECT_EQ(service.hits(), 1u);
    EXPECT_EQ(service.misses(), 2u);
}

TEST(ServiceTest, MetricsRecordLatenciesAndOutcomes)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    config.defaults.sim.engineOverride =
        std::make_shared<StubEngine>();
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    serve::Service service(config);

    service.handleLine("{\"dataset\":\"Cora\"}");
    service.handleLine("{\"dataset\":\"Cora\"}");
    service.handleLine("{\"dataset\":\"nope\"}");

    const auto &m = *config.metrics;
    EXPECT_EQ(m.findCounter("serve.request.count")->value(), 3u);
    EXPECT_EQ(m.findCounter("serve.cache.miss.count")->value(), 1u);
    EXPECT_EQ(m.findCounter("serve.cache.hit.count")->value(), 1u);
    EXPECT_EQ(m.findCounter("serve.request.error.count")->value(), 1u);
    const obs::Histogram *latency =
        m.findHistogram("serve.request.latency_us");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 3u);
    ASSERT_NE(m.findHistogram("serve.queue.wait_us"), nullptr);
    EXPECT_EQ(m.findHistogram("serve.queue.wait_us")->count(), 1u);
}

// ---------------------------------------------------------------
// Service: plan memo
// ---------------------------------------------------------------

/** One Stable response from a fresh service with no caches at all. */
std::string
uncachedStable(const std::string &line)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    config.cacheCapacity = 0;
    serve::Service service(config);
    return service.handleLine(line, serve::Envelope::Stable);
}

/** A gauge's value, or -1 when the registry does not hold it. */
int64_t
gaugeValue(const obs::MetricsRegistry &m, const std::string &name)
{
    const obs::Gauge *gauge = m.findGauge(name);
    return gauge ? gauge->value() : -1;
}

TEST(ServicePlanMemo, HitsMatchFreshRunBytesForEveryFamily)
{
    // Each request first runs on the closed form (planning it), then
    // on the event engine: a result-cache miss whose plan is a memo
    // hit. Its bytes must equal a run on a service without memos.
    struct Case
    {
        std::string body;
        int64_t plans; ///< distinct plans: one per system run
    };
    const std::vector<Case> cases = {
        {R"("dataset":"Cora","baseline":"Serial")", 2},
        {R"("workload":"gnn-infer","dataset":"Cora","partition":"row")", 1},
        {R"("workload":"gnn-infer","dataset":"Cora","partition":"col")", 1},
        {R"("workload":"gnn-infer","dataset":"Cora","partition":"nnz")", 1},
        // An allocated plan depends on the system, so a family
        // baseline allocates its own plan; the repeat hits both.
        {R"("workload":"cnn-infer","baseline":"Serial")", 2},
    };
    for (const Case &c : cases) {
        serve::ServiceConfig config;
        config.jobs = 1;
        config.metrics = std::make_shared<obs::MetricsRegistry>();
        serve::Service service(config);
        const std::string planned = service.handleLine(
            "{" + c.body + R"(,"engine":"closed"})",
            serve::Envelope::Stable);
        const std::string line = "{" + c.body + R"(,"engine":"event"})";
        const std::string memoHit =
            service.handleLine(line, serve::Envelope::Stable);
        EXPECT_TRUE(lineSays(planned, "\"type\":\"result\"")) << planned;
        EXPECT_EQ(service.hits(), 0u) << c.body;
        EXPECT_EQ(memoHit, uncachedStable(line)) << c.body;
        const bool baseline = lineSays(c.body, "baseline");
        const int64_t lookups = baseline ? 4 : 2;
        const auto &m = *config.metrics;
        EXPECT_EQ(gaugeValue(m, "serve.plan_memo.misses"), c.plans)
            << c.body;
        EXPECT_EQ(gaugeValue(m, "serve.plan_memo.hits"),
                  lookups - c.plans)
            << c.body;
        EXPECT_EQ(gaugeValue(m, "serve.plan_memo.entries"), c.plans)
            << c.body;
        EXPECT_EQ(gaugeValue(m, "serve.plan_memo.evictions"), 0)
            << c.body;
    }
}

/** A mixed stream: every family, repeats, engines and baselines. */
std::string
mixedMemoStream()
{
    std::string stream;
    for (int pass = 0; pass < 2; ++pass) {
        for (const char *engine : {"closed", "event", "replay"}) {
            const std::string e =
                std::string(R"("engine":")") + engine + "\"";
            stream += R"({"dataset":"Cora",)" + e + "}\n";
            stream += R"({"dataset":"ddi","baseline":"Serial",)" + e +
                      "}\n";
            stream += R"({"dataset":"Cora","theta":0.5,)" + e + "}\n";
            stream += R"({"workload":"gnn","dataset":"Cora","partition":")" +
                      std::string(pass == 0 ? "nnz" : "col") + R"(",)" +
                      e + "}\n";
            stream += R"({"workload":"cnn","baseline":"Serial",)" + e +
                      "}\n";
        }
        stream += R"({"dataset":"Cora","seed":7})" "\n";
        stream += R"({"workload":"gnn","dataset":"Cora","seed":)" +
                  std::to_string(3 + pass) + "}\n";
        stream += R"({"dataset":"Cora","repair":"ecc-dup",)"
                  R"("stuck_on_rate":0.001})" "\n";
    }
    return stream;
}

TEST(ServicePlanMemo, MixedStreamIsIdenticalAcrossCapacitiesAndJobs)
{
    const std::string stream = mixedMemoStream();
    std::string reference;
    for (const size_t capacity : {0, 1, 64}) {
        for (const size_t jobs : {1, 4}) {
            serve::ServiceConfig config;
            config.jobs = jobs;
            config.cacheCapacity = capacity;
            serve::Service service(config);
            std::istringstream in(stream);
            std::ostringstream out;
            const auto stats = service.processStream(
                in, out, false, serve::Envelope::Stable);
            EXPECT_EQ(stats.errors, 0u) << out.str();
            if (reference.empty())
                reference = out.str();
            EXPECT_EQ(out.str(), reference)
                << "capacity " << capacity << ", jobs " << jobs;
        }
    }
}

TEST(ServicePlanMemo, FaultKnobsAndThetaNeverSharePlans)
{
    // Each request differs from the first only in one plan input, on
    // a different engine so the result cache cannot answer: every one
    // must plan afresh (a miss) and match a memo-free run.
    serve::ServiceConfig config;
    config.jobs = 1;
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    serve::Service service(config);
    service.handleLine(R"({"dataset":"Cora","engine":"closed"})");
    const std::vector<std::string> variants = {
        R"({"dataset":"Cora","engine":"event","theta":0.5})",
        R"({"dataset":"Cora","engine":"event","theta":0.25})",
        R"({"dataset":"Cora","engine":"event","stuck_on_rate":0.001})",
        R"({"dataset":"Cora","engine":"event","stuck_off_rate":0.001})",
        R"({"dataset":"Cora","engine":"event","drift_rate":0.01})",
        R"({"dataset":"Cora","engine":"event","stuck_on_rate":0.001,)"
        R"("repair":"spare-rows"})",
        R"({"dataset":"Cora","engine":"event","stuck_on_rate":0.001,)"
        R"("spare_rows":0.1})",
    };
    const auto &m = *config.metrics;
    for (size_t i = 0; i < variants.size(); ++i) {
        const std::string line =
            service.handleLine(variants[i], serve::Envelope::Stable);
        EXPECT_EQ(line, uncachedStable(variants[i])) << variants[i];
        EXPECT_EQ(gaugeValue(m, "serve.plan_memo.hits"), 0)
            << variants[i];
        EXPECT_EQ(gaugeValue(m, "serve.plan_memo.misses"),
                  static_cast<int64_t>(i + 2))
            << variants[i];
    }
    // The unchanged configuration on another engine does hit.
    service.handleLine(R"({"dataset":"Cora","engine":"event"})");
    EXPECT_EQ(gaugeValue(m, "serve.plan_memo.hits"), 1);
}

TEST(ServicePlanMemo, BoundedByCacheCapacityAndOutOfResponseBytes)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    config.cacheCapacity = 2;
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    serve::Service service(config);
    // Six plans: three gcn-train seeds, one gnn-infer plan, and a
    // cnn-infer system and baseline. The one plan memo holds twice
    // the result capacity, so two are evicted.
    std::string responses;
    for (int seed = 1; seed <= 3; ++seed)
        responses += service.handleLine(
            R"({"dataset":"Cora","seed":)" + std::to_string(seed) + "}");
    responses += service.handleLine(
        R"({"workload":"gnn-infer","dataset":"Cora","seed":1})");
    responses += service.handleLine(
        R"({"workload":"cnn-infer","baseline":"Serial"})");
    responses += service.handleLine(R"({"type":"stats"})");
    const auto &m = *config.metrics;
    EXPECT_EQ(gaugeValue(m, "serve.plan_memo.misses"), 6);
    EXPECT_EQ(gaugeValue(m, "serve.plan_memo.entries"), 4);
    EXPECT_EQ(gaugeValue(m, "serve.plan_memo.evictions"), 2);
    EXPECT_FALSE(lineSays(responses, "plan_memo")) << responses;

    // Capacity 0 turns the plan memo off with the result cache.
    config.cacheCapacity = 0;
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    serve::Service off(config);
    off.handleLine(R"({"dataset":"Cora"})");
    off.handleLine(R"({"dataset":"Cora","engine":"event"})");
    EXPECT_EQ(gaugeValue(*config.metrics, "serve.plan_memo.misses"), 0);
    EXPECT_EQ(gaugeValue(*config.metrics, "serve.plan_memo.hits"), 0);
}

TEST(PlanLaziness, MemoHitReadsNoProfile)
{
    // A GoPIM plan ranks vertices, so a miss builds the profile. A
    // repeat on another engine gets the very plan the miss stored:
    // planning, the only profile reader, does not run again.
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const auto resolve = [](const std::string &text) {
        json::Value body;
        EXPECT_TRUE(json::Value::parse(text, &body));
        serve::Request request;
        EXPECT_TRUE(
            serve::parseRequest(body, serve::Request{}, &request).ok());
        serve::ResolvedRequest resolved;
        EXPECT_TRUE(serve::resolveRequest(request, &resolved).ok());
        return resolved;
    };
    core::PlanMemo plans;
    const auto first = serve::runRequest(
        resolve(R"({"dataset":"ddi","engine":"closed"})"), hw, &plans);
    const auto second = serve::runRequest(
        resolve(R"({"dataset":"ddi","engine":"event"})"), hw, &plans);
    EXPECT_EQ(first.plan.get(), second.plan.get());
    EXPECT_EQ(plans.misses(), 1u);
    EXPECT_EQ(plans.hits(), 1u);
    EXPECT_EQ(first.plan->label, "ddi");
}

} // namespace
} // namespace gopim
