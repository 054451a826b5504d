#include "util/atomic_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "util/logging.h"

namespace gables {

void
writeFileAtomic(const std::string &path,
                const std::function<void(std::ostream &)> &write)
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
        try {
            write(out);
        } catch (...) {
            std::remove(tmp.c_str());
            throw;
        }
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

void
writeFileAtomic(const std::string &path, const std::string &contents)
{
    writeFileAtomic(path, [&](std::ostream &out) {
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
    });
}

std::string
readWholeFile(const std::string &path, const std::string &noun)
{
    struct Close {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, Close> file(std::fopen(path.c_str(), "rb"));
    if (!file)
        fatal("cannot open " + noun + " '" + path + "'");
    std::string text;
    char chunk[64 * 1024];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, file.get())) > 0)
        text.append(chunk, n);
    // A directory opens, and its read fails here with EISDIR.
    if (std::ferror(file.get()) != 0) {
        const int error = errno;
        fatal("cannot read " + noun + " '" + path +
              "': " + std::strerror(error));
    }
    return text;
}

} // namespace gables
