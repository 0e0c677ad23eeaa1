#include "common/logging.hh"

#include <cstdio>

namespace gopim {

namespace detail {

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "[gopim:%s] %s\n", tag, msg.c_str());
    std::fflush(stderr);
}

} // namespace detail

} // namespace gopim
