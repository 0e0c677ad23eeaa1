#include "cluster/router.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include <sys/socket.h>

#include "cluster/proc.hh"
#include "cluster/wire.hh"
#include "common/logging.hh"
#include "obs/profile.hh"
#include "serve/pump.hh"

namespace gopim::cluster {

namespace {

void
sleepMs(uint32_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** SIGKILL and reap a spawned worker, if any; `*pid` ends at -1. */
void
killWorker(int64_t *pid)
{
    if (*pid <= 0)
        return;
    killProcess(*pid, SIGKILL);
    reapProcess(*pid, true);
    *pid = -1;
}

/** The answer to a request whose shard was given up. */
std::string
unavailableLine(const std::string &id, const std::string &shardName)
{
    return serve::errorResponseLine(
        id, {"shard_unavailable", "",
             "shard '" + shardName +
                 "' is unavailable (worker failed permanently)"});
}

} // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics
                   ? config_.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      admission_(config_.admission, *metrics_,
                 config_.shards.size()),
      requestCount_(&metrics_->counter("cluster.request.count")),
      errorCount_(&metrics_->counter("cluster.error.count")),
      chaosRng_(config_.chaosSeed)
{
    shards_.reserve(config_.shards.size());
    for (size_t i = 0; i < config_.shards.size(); ++i) {
        names_.push_back(config_.shards[i].name);
        auto shard = std::make_unique<Shard>();
        shard->index = i;
        shard->spec = config_.shards[i];
        shards_.push_back(std::move(shard));
    }
    defaultsFp_ =
        serve::defaultsFingerprint(config_.defaults, config_.hw);
}

Router::~Router()
{
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        disconnectShard(shard);
        if (shard.pid > 0) {
            killProcess(shard.pid, SIGTERM);
            // Give the worker its accept-loop tick to notice the
            // signal before escalating.
            bool reaped = false;
            for (int i = 0; i < 150 && !reaped; ++i) {
                reaped = reapProcess(shard.pid, false);
                if (!reaped)
                    sleepMs(20);
            }
            if (reaped)
                shard.pid = -1;
            killWorker(&shard.pid); // escalates only if it lingers
        }
    }
}

std::string
Router::start()
{
    std::lock_guard<std::mutex> owner(ownerMutex_);
    if (started_)
        return "router already started";
    if (shards_.empty())
        return "no shards configured";
    std::vector<std::string> sorted = names_;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) !=
        sorted.end())
        return "duplicate shard name '" +
               *std::adjacent_find(sorted.begin(), sorted.end()) +
               "'";
    for (auto &shard : shards_) {
        if (std::string problem = connectShard(*shard);
            !problem.empty())
            return "shard '" + shard->spec.name + "': " + problem;
    }
    started_ = true;
    return "";
}

std::string
Router::connectShard(Shard &shard)
{
    std::string host = shard.spec.host;
    uint16_t port = shard.spec.port;

    if (!shard.spec.command.empty()) {
        // Spawn the worker ourselves: hand it an ephemeral port and
        // read the bound port back through its --port-file.
        std::remove(shard.spec.portFile.c_str());
        std::vector<std::string> argv = shard.spec.command;
        argv.push_back("--tcp=0");
        argv.push_back("--port-file=" + shard.spec.portFile);
        std::string spawnError;
        shard.pid = spawnProcess(argv, &spawnError);
        if (shard.pid < 0)
            return spawnError;

        int reported = 0;
        for (uint32_t i = 0; i < 500 && reported == 0; ++i) {
            std::ifstream portIn(shard.spec.portFile);
            if (!(portIn >> reported) || reported <= 0 ||
                reported > 65535) {
                reported = 0;
                sleepMs(20);
            }
        }
        if (reported == 0) {
            killWorker(&shard.pid);
            return "worker did not report a port via " +
                   shard.spec.portFile;
        }
        host = "127.0.0.1";
        port = static_cast<uint16_t>(reported);
    }

    // Any failure from here on must not leak a just-spawned worker:
    // the caller's retry would spawn another one on top of it.
    auto fail = [&](std::string reason) {
        killWorker(&shard.pid);
        return reason;
    };

    std::string connectError;
    int fd = -1;
    for (uint32_t attempt = 0;
         attempt < std::max<uint32_t>(1, config_.connectAttempts);
         ++attempt) {
        fd = net::connectTcp(host, port, &connectError);
        if (fd >= 0)
            break;
        sleepMs(config_.connectDelayMs);
    }
    if (fd < 0)
        return fail("connect to " + host + ":" +
                    std::to_string(port) +
                    " failed: " + connectError);
    net::Fd guard(fd);

    if (!net::writeFrame(fd, helloLine("router",
                                       serve::Envelope::Stable,
                                       defaultsFp_)))
        return fail("hello write failed");
    std::string reply;
    std::string readError;
    if (net::readFrame(fd, &reply, &readError) != net::IoStatus::Ok)
        return fail("hello reply missing: " +
                    (readError.empty()
                         ? std::string("connection closed")
                         : readError));
    if (std::string problem = checkHelloReply(reply, defaultsFp_);
        !problem.empty())
        return fail(problem);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        shard.dead = false;
    }
    shard.fd = std::move(guard);
    shard.reader = std::thread([this, &shard] { readerLoop(shard); });
    return "";
}

void
Router::readerLoop(Shard &shard)
{
    const int fd = shard.fd.get();
    while (true) {
        std::string payload;
        const net::IoStatus status = net::readFrame(fd, &payload);
        std::lock_guard<std::mutex> lock(mutex_);
        if (status != net::IoStatus::Ok || shard.journal.empty()) {
            // Connection lost — or a frame with nothing journaled
            // against it, which only a corrupted peer can produce.
            // Either way this connection is done; the next holder of
            // the owner lock revives the shard and re-issues its
            // journal.
            shard.dead = true;
            cv_.notify_all();
            return;
        }
        Journaled front = std::move(shard.journal.front());
        shard.journal.pop_front();
        if (serve::isErrorLine(payload))
            errorCount_->add();
        front.entry->response = std::move(payload);
        front.entry->done = true;
        admission_.onComplete(shard.index);
        cv_.notify_all();
    }
}

void
Router::disconnectShard(Shard &shard)
{
    // Wake a reader blocked in readFrame without closing the fd out
    // from under it; the fd is reset only after the join.
    if (shard.fd.valid())
        ::shutdown(shard.fd.get(), SHUT_RDWR);
    if (shard.reader.joinable())
        shard.reader.join();
    shard.fd.reset();
    std::lock_guard<std::mutex> lock(mutex_);
    shard.dead = true;
}

void
Router::failJournal(Shard &shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    shard.gone = true;
    for (Journaled &journaled : shard.journal) {
        journaled.entry->response =
            unavailableLine(journaled.entry->id, shard.spec.name);
        journaled.entry->done = true;
    }
    errorCount_->add(shard.journal.size());
    shard.journal.clear();
    admission_.resetInflight(shard.index, 0);
    cv_.notify_all();
}

void
Router::reviveShard(Shard &shard)
{
    disconnectShard(shard);
    // Crashed or chaos-killed: reap the corpse before respawning.
    killWorker(&shard.pid);

    // The journal cannot change while the shard is dead (its reader
    // is joined and only the owner-lock holder appends), so a plain
    // snapshot is re-issuable as-is, in order.
    std::vector<std::string> replay;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        replay.reserve(shard.journal.size());
        for (const Journaled &journaled : shard.journal)
            replay.push_back(journaled.line);
    }

    for (uint32_t attempt = 0; attempt < config_.restartAttempts;
         ++attempt) {
        if (std::string problem = connectShard(shard);
            !problem.empty()) {
            warn("cluster: shard '", shard.spec.name,
                 "' restart attempt ", attempt + 1, "/",
                 config_.restartAttempts, " failed: ", problem);
            continue;
        }
        bool reissued = true;
        for (const std::string &line : replay) {
            if (!net::writeFrame(shard.fd.get(), line)) {
                reissued = false;
                break;
            }
        }
        if (!reissued) {
            // Died again mid-replay; the journal is intact. Tear the
            // half-open connection (and its reader thread) down
            // before the next attempt respawns.
            disconnectShard(shard);
            killWorker(&shard.pid);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++shard.restarts;
        }
        metrics_->counter("cluster.restart.count").add();
        metrics_->counter("cluster.reissue.count")
            .add(replay.size());
        return;
    }

    warn("cluster: shard '", shard.spec.name, "' gave up after ",
         config_.restartAttempts,
         " restart attempts; failing its in-flight requests");
    failJournal(shard);
}

Router::Shard *
Router::shardOwingRevival()
{
    for (auto &shard : shards_)
        if (shard->dead && !shard->gone && !shard->journal.empty())
            return shard.get();
    return nullptr;
}

void
Router::recoverDeadShards()
{
    std::lock_guard<std::mutex> owner(ownerMutex_);
    std::unique_lock<std::mutex> lock(mutex_);
    while (Shard *shard = shardOwingRevival()) {
        lock.unlock();
        reviveShard(*shard);
        lock.lock();
    }
}

Router::EntryPtr
Router::immediateEntry(std::string response, bool isError)
{
    if (isError)
        errorCount_->add();
    auto entry = std::make_shared<Entry>();
    entry->done = true;
    entry->response = std::move(response);
    return entry;
}

size_t
Router::shardFor(const std::string &key) const
{
    return rendezvousShard(key, names_);
}

Router::EntryPtr
Router::dispatchLine(const std::string &line)
{
    requestCount_->add();

    const serve::DecodedLine decoded =
        serve::decodeLine(line, config_.defaults, config_.hw);
    // Stats queries are answered by the router itself — they ask
    // about the serving process, and here that is the cluster.
    if (decoded.stats)
        return immediateEntry(statsJson().dump(), false);
    if (!decoded.error.ok())
        return immediateEntry(
            serve::errorResponseLine(decoded.id, decoded.error), true);
    // Owned from routing through the frame write: no revival can swap
    // the shard's connection or journal under this line.
    std::lock_guard<std::mutex> owner(ownerMutex_);
    const size_t index = shardFor(decoded.key);
    Shard &shard = *shards_[index];

    // Admission: shed fast, block on saturation, revive on demand.
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        if (shard.gone) {
            lock.unlock();
            return immediateEntry(
                unavailableLine(decoded.id, shard.spec.name), true);
        }
        if (shard.dead) {
            lock.unlock();
            reviveShard(shard);
            lock.lock();
            continue;
        }
        const Admit admit = admission_.decide(index);
        if (admit == Admit::Accept)
            break;
        if (admit == Admit::Shed) {
            const int64_t depth = admission_.inflight(index);
            lock.unlock();
            admission_.onShed(index);
            return immediateEntry(
                serve::errorResponseLine(
                    decoded.id,
                    {"overloaded", "",
                     "shard '" + shard.spec.name +
                         "' is overloaded (" +
                         std::to_string(depth) +
                         " in flight); request shed"}),
                true);
        }
        cv_.wait_for(lock, std::chrono::milliseconds(20));
    }

    auto entry = std::make_shared<Entry>();
    entry->id = decoded.id;
    entry->routed = true;
    entry->dispatchedUs = obs::profileNowUs();
    shard.journal.push_back({line, entry});
    admission_.onDispatch(index);
    const int fd = shard.fd.get();
    lock.unlock();

    if (!net::writeFrame(fd, line)) {
        // Death detected on write: the request is journaled, so the
        // revival path (finishEntry / next dispatch to this shard)
        // re-issues it — the entry still completes.
        std::lock_guard<std::mutex> guard(mutex_);
        shard.dead = true;
        cv_.notify_all();
    }
    return entry;
}

bool
Router::entryDone(const EntryPtr &entry) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entry->done;
}

std::string
Router::finishEntry(EntryPtr &entry)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        cv_.wait(lock, [&] { return entry->done || shardOwingRevival(); });
        if (entry->done)
            break;
        lock.unlock();
        recoverDeadShards();
        lock.lock();
    }
    lock.unlock();
    if (entry->routed)
        admission_.observeLatency(obs::profileNowUs() -
                                  entry->dispatchedUs);
    // Chaos harness: every chaosKillEvery responses, SIGKILL one
    // seeded-random spawned worker; recovery keeps the bytes unchanged.
    if (config_.chaosKillEvery != 0) {
        std::lock_guard<std::mutex> owner(ownerMutex_);
        obs::Counter &kills =
            metrics_->counter("cluster.chaos.kill.count");
        std::vector<Shard *> candidates;
        for (auto &shardPtr : shards_)
            if (shardPtr->pid > 0 && !shardPtr->gone)
                candidates.push_back(shardPtr.get());
        if (++emitted_ % config_.chaosKillEvery == 0 &&
            kills.value() < config_.chaosKillCount && !candidates.empty()) {
            const uint64_t pick = chaosRng_.uniformInt(candidates.size());
            killProcess(candidates[pick]->pid, SIGKILL);
            kills.add();
        }
    }
    return std::move(entry->response);
}

void
Router::processStream(std::istream &in, std::ostream &out)
{
    serve::pumpStream(in, out, std::bind_front(&Router::dispatchLine, this),
                      std::bind_front(&Router::entryDone, this),
                      std::bind_front(&Router::finishEntry, this));
}

void
Router::processFramed(int clientFd)
{
    if (!acceptHello(clientFd, "router", defaultsFp_,
                     serve::Envelope::Full, true))
        return;
    serve::pumpFrames(clientFd,
                      std::bind_front(&Router::dispatchLine, this),
                      std::bind_front(&Router::entryDone, this),
                      std::bind_front(&Router::finishEntry, this));
}

json::Value
Router::statsJson() const
{
    json::Value inflight = json::Value::array();
    uint64_t journaled = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &shardPtr : shards_) {
            json::Value entry = json::Value::object();
            entry.set("name", shardPtr->spec.name);
            entry.set("inflight",
                      static_cast<int64_t>(
                          shardPtr->journal.size()));
            entry.set("restarts",
                      static_cast<int64_t>(shardPtr->restarts));
            entry.set("gone", shardPtr->gone);
            journaled += shardPtr->journal.size();
            inflight.push(std::move(entry));
        }
    }
    json::Value v = json::Value::object();
    v.set("type", "stats");
    v.set("requests", requestCount_->value());
    v.set("errors", errorCount_->value());
    v.set("shed", metrics_->counter("cluster.shed.count").value());
    v.set("restarts", metrics_->counter("cluster.restart.count").value());
    v.set("reissued", metrics_->counter("cluster.reissue.count").value());
    v.set("chaos_kills",
          metrics_->counter("cluster.chaos.kill.count").value());
    v.set("inflight", journaled);
    v.set("shards", std::move(inflight));
    return v;
}

} // namespace gopim::cluster
