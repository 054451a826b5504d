#include "util/atomic_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/logging.h"

namespace gables {

void
writeFileAtomic(const std::string &path, const std::string &contents)
{
    // A unique sibling keeps the rename on one filesystem and lets
    // concurrent writers of the same target collide harmlessly.
    std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot open '" + tmp + "' for writing: " +
                  std::strerror(errno));
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.flush();
        if (!out) {
            int saved = errno;
            std::remove(tmp.c_str());
            fatal("cannot write '" + tmp + "': " +
                  std::strerror(saved));
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int saved = errno;
        std::remove(tmp.c_str());
        fatal("cannot rename '" + tmp + "' to '" + path + "': " +
              std::strerror(saved));
    }
}

} // namespace gables
