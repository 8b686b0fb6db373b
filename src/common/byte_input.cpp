#include "common/byte_input.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace tempest::common {

ByteInput::ByteInput(std::string_view bytes)
    : memory_(bytes.data()), size_(bytes.size()) {}

ByteInput::ByteInput(const std::string& path, std::string cannot_open)
    : fd_(::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC)) {
  struct stat st {};
  if (fd_ < 0) {
    opened_ = Status::error(std::move(cannot_open));
  } else if (::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode)) {
    opened_ = Status::error(path + ": not a regular file");
  } else {
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
}

ByteInput::~ByteInput() {
  if (fd_ >= 0) ::close(fd_);
}

ByteInput::ByteInput(ByteInput&& other) noexcept
    : memory_(other.memory_),
      fd_(std::exchange(other.fd_, -1)),
      size_(std::exchange(other.size_, 0)),
      opened_(std::move(other.opened_)) {}

Status ByteInput::read(std::uint64_t offset, std::uint64_t size, void* dst) const {
  if (!contains(offset, size)) return Status::error("read beyond end of file");
  if (size == 0) return Status::ok();
  char* out = static_cast<char*>(dst);
  if (fd_ < 0) {
    std::memcpy(out, memory_ + offset, size);
    return Status::ok();
  }
  while (size > 0) {
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(size, std::uint64_t{1} << 30));
    const ssize_t n = ::pread(fd_, out, want, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::error("short read at offset " + std::to_string(offset));
    }
    out += n;
    offset += static_cast<std::uint64_t>(n);
    size -= static_cast<std::uint64_t>(n);
  }
  return Status::ok();
}

}  // namespace tempest::common
