//===- support/FileSystem.cpp - POSIX file-ops backend ----------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/FileSystem.h"

#include "sampletrack/support/ByteCodec.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

using namespace sampletrack;
using namespace sampletrack::support;

bool sampletrack::support::writeAll(WritableFile &File,
                                    std::string_view Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    long N = File.write(Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0)
      return false;
    if (N == 0)
      return false; // A writer that makes no progress never will.
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string sampletrack::support::parentDirOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return ".";
  if (Slash == 0)
    return "/";
  return Path.substr(0, Slash);
}

namespace {

/// Unbuffered fd-backed writable file. No stdio layer between the
/// durability code and the kernel: write() maps to ::write (with EINTR
/// retried here — a *short* count is still passed up to the caller's
/// loop), sync() to ::fsync.
class PosixWritableFile final : public WritableFile {
public:
  explicit PosixWritableFile(int Fd) : Fd(Fd) {}
  ~PosixWritableFile() override { close(); }

  long write(const char *Data, size_t Len) override {
    if (Fd < 0)
      return -1;
    for (;;) {
      ssize_t N = ::write(Fd, Data, Len);
      if (N < 0 && errno == EINTR)
        continue;
      return static_cast<long>(N);
    }
  }

  bool sync() override { return Fd >= 0 && ::fsync(Fd) == 0; }

  bool close() override {
    if (Fd < 0)
      return true;
    int Rc = ::close(Fd);
    Fd = -1;
    return Rc == 0;
  }

private:
  int Fd;
};

class PosixFileSystem final : public FileSystem {
public:
  bool readFile(const std::string &Path, std::string &Out,
                std::string *Error) override {
    int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0)
      return fail(Error, "cannot open '" + Path + "': " +
                             std::strerror(errno));
    std::string Bytes;
    char Chunk[64 << 10];
    for (;;) {
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        int E = errno;
        ::close(Fd);
        return fail(Error, "read '" + Path + "': " + std::strerror(E));
      }
      if (N == 0)
        break;
      Bytes.append(Chunk, static_cast<size_t>(N));
    }
    ::close(Fd);
    Out = std::move(Bytes);
    return true;
  }

  std::unique_ptr<WritableFile> openWrite(const std::string &Path,
                                          bool Append,
                                          std::string *Error) override {
    int Flags = O_WRONLY | O_CREAT | O_CLOEXEC | (Append ? O_APPEND : O_TRUNC);
    int Fd = ::open(Path.c_str(), Flags, 0644);
    if (Fd < 0) {
      fail(Error, "cannot write '" + Path + "': " + std::strerror(errno));
      return nullptr;
    }
    return std::make_unique<PosixWritableFile>(Fd);
  }

  bool exists(const std::string &Path) override {
    struct stat St;
    return ::stat(Path.c_str(), &St) == 0;
  }

  bool isDirectory(const std::string &Path) override {
    struct stat St;
    return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
  }

  bool mkdir(const std::string &Path) override {
    return ::mkdir(Path.c_str(), 0755) == 0;
  }

  bool rename(const std::string &From, const std::string &To) override {
    return ::rename(From.c_str(), To.c_str()) == 0;
  }

  bool remove(const std::string &Path) override {
    return ::unlink(Path.c_str()) == 0;
  }

  bool removeDir(const std::string &Path) override {
    return ::rmdir(Path.c_str()) == 0;
  }

  bool truncate(const std::string &Path, uint64_t Size) override {
    return ::truncate(Path.c_str(), static_cast<off_t>(Size)) == 0;
  }

  bool syncDirectory(const std::string &Path) override {
    int Fd = ::open(Path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (Fd < 0)
      return false;
    int Rc = ::fsync(Fd);
    ::close(Fd);
    return Rc == 0;
  }

  bool list(const std::string &Path,
            std::vector<std::string> &Names) override {
    DIR *D = ::opendir(Path.c_str());
    if (!D)
      return false;
    Names.clear();
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        Names.push_back(std::move(Name));
    }
    ::closedir(D);
    return true;
  }

  bool fileSize(const std::string &Path, uint64_t &Size) override {
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      return false;
    Size = static_cast<uint64_t>(St.st_size);
    return true;
  }
};

} // namespace

FileSystem &FileSystem::real() {
  static PosixFileSystem Fs;
  return Fs;
}
