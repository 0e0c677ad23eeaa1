#include "cluster/worker.hh"

#include "cluster/wire.hh"
#include "common/net.hh"

namespace gopim::cluster {

void
pumpFramedConnection(serve::Service &service, int fd,
                     const WorkerOptions &options)
{
    const auto envelope = acceptHello(fd, "worker", options.defaultsFp,
                                      options.defaultEnvelope, false);
    if (!envelope)
        return;
    service.pumpSession(
        [fd](std::string *line) {
            return net::readFrame(fd, line) == net::IoStatus::Ok;
        },
        [fd](const std::string &response, bool) {
            return net::writeFrame(fd, response);
        },
        *envelope);
}

} // namespace gopim::cluster
