#include "src/support/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace vc {

namespace {

// Reads into [data, data + size) until it is full or the file ends; returns
// the number of bytes read, or -1 on a read error (errno set).
ssize_t ReadFully(int fd, char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t got = ::read(fd, data + done, size - done);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (got == 0) {
      break;
    }
    done += static_cast<size_t>(got);
  }
  return static_cast<ssize_t>(done);
}

// Fills *out from `fd`; returns what went wrong, or "" on success.
std::string ReadAll(int fd, std::string* out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return std::strerror(errno);
  }
  // Regular files are read with one read sized to the file. Anything past
  // that (pseudo-files that report size 0, pipes, a file that grew since the
  // fstat) is drained to end-of-file through a bounce buffer.
  const size_t size = S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) : 0;
  out->resize(size);
  ssize_t got = ReadFully(fd, out->data(), size);
  if (got < 0) {
    return std::strerror(errno);
  }
  if (static_cast<size_t>(got) != size) {
    return "short read (" + std::to_string(got) + " of " + std::to_string(size) + " bytes)";
  }
  char chunk[1 << 16];
  do {
    got = ReadFully(fd, chunk, sizeof(chunk));
    if (got < 0) {
      return std::strerror(errno);  // EISDIR lands here for a directory
    }
    out->append(chunk, static_cast<size_t>(got));
  } while (static_cast<size_t>(got) == sizeof(chunk));
  return "";
}

}  // namespace

bool ReadWholeFile(const std::string& path, std::string* out, std::string* error) {
  std::string what;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    what = std::strerror(errno);
  } else {
    what = ReadAll(fd, out);
    ::close(fd);
  }
  if (what.empty()) {
    return true;
  }
  out->clear();
  if (error != nullptr) {
    *error = "cannot read " + path + ": " + what;
  }
  return false;
}

bool EnsureParentDir(const std::string& path, std::string* error) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    *error = "cannot create directory " + parent.string() + ": " + ec.message();
    return false;
  }
  return true;
}

}  // namespace vc
