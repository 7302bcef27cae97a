// The forked helper backend behind fork.wakeup_us: for every line "N" read
// on stdin it writes the protocol line "%set pong N" to stdout, so each
// round trip costs the frontend one eval plus two kernel wakeups.
#include <unistd.h>

#include <string>

int main() {
  std::string in;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(0, chunk, sizeof(chunk));
    if (n <= 0) {
      return 0;
    }
    in.append(chunk, static_cast<std::size_t>(n));
    std::string out;
    std::size_t nl;
    while ((nl = in.find('\n')) != std::string::npos) {
      out += "%set pong " + in.substr(0, nl) + "\n";
      in.erase(0, nl + 1);
    }
    std::size_t off = 0;
    while (off < out.size()) {
      ssize_t w = ::write(1, out.data() + off, out.size() - off);
      if (w <= 0) {
        return 1;
      }
      off += static_cast<std::size_t>(w);
    }
  }
}
