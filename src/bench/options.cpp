#include "bench/options.hpp"

#include <charconv>
#include <iostream>
#include <system_error>
#include <thread>

#include "util/error.hpp"

namespace prtr::bench {

std::uint64_t parseUnsigned(std::string_view flag, std::string_view text) {
  // from_chars on an unsigned type takes no sign and skips no whitespace,
  // so "digits that fit" is exactly "the whole text parsed without error".
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size()) {
    throw util::DomainError{std::string{flag} +
                            " requires an unsigned 64-bit integer, got '" +
                            std::string{text} + "'"};
  }
  return value;
}

Options Options::parse(std::string bench, int argc,
                       const char* const* argv) {
  Options options;
  options.bench_ = std::move(bench);
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads_ = hw == 0 ? 1 : hw;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      options.help_ = true;
    } else if (arg == "--json" || arg == "--trace" || arg == "--profile") {
      if (i + 1 >= argc) throw util::DomainError{arg + " requires a path"};
      (arg == "--json"    ? options.json_
       : arg == "--trace" ? options.trace_
                          : options.profile_) = argv[++i];
    } else if (arg == "--threads") {
      if (i + 1 >= argc) throw util::DomainError{"--threads requires a count"};
      const std::uint64_t parsed = parseUnsigned(arg, argv[++i]);
      if (parsed == 0) {
        throw util::DomainError{"--threads requires a positive integer"};
      }
      if (parsed > kMaxThreads) {
        throw util::DomainError{"--threads takes at most " +
                                std::to_string(kMaxThreads) + ", got " +
                                std::to_string(parsed)};
      }
      options.threads_ = static_cast<std::size_t>(parsed);
    } else if (arg == "--seed") {
      if (i + 1 >= argc) throw util::DomainError{"--seed requires a value"};
      options.seed_ = parseUnsigned(arg, argv[++i]);
      options.seedSet_ = true;
    } else {
      options.rest_.push_back(arg);
    }
  }
  return options;
}

std::string Options::usage(const std::string& bench,
                           const std::string& extra) {
  std::string text = "usage: " + bench + " [options]\n\n";
  text +=
      "  --json <path>      write the machine-readable report JSON\n"
      "  --trace <path>     export a Chrome trace of the simulated run\n"
      "  --profile <path>   write the host timing histograms JSON\n"
      "  --threads <n>      worker threads for parallel sweeps, 1.." +
      std::to_string(kMaxThreads) +
      " (default: hardware)\n"
      "  --seed <n>         override the deterministic RNG seed\n"
      "  --help             print this message and exit\n";
  if (!extra.empty()) {
    text += "\n";
    text += extra;
    if (text.back() != '\n') text += '\n';
  }
  return text;
}

bool Options::helpRequestedAndHandled(const std::string& extra) const {
  if (!help_) return false;
  std::cout << usage(bench_, extra);
  return true;
}

}  // namespace prtr::bench
