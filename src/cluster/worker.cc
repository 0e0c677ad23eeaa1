#include "cluster/worker.hh"

#include <functional>

#include "cluster/wire.hh"
#include "serve/pump.hh"

namespace gopim::cluster {

void
pumpFramedConnection(serve::Service &service, int fd,
                     const WorkerOptions &options)
{
    const auto envelope = acceptHello(fd, "worker", options.defaultsFp,
                                      options.defaultEnvelope, false);
    if (!envelope)
        return;
    serve::pumpFrames(
        fd,
        [&service, envelope = *envelope](const std::string &line) {
            return service.submit(line, envelope);
        },
        std::bind_front(&serve::Service::ready, &service),
        std::bind_front(&serve::Service::finish, &service));
}

} // namespace gopim::cluster
