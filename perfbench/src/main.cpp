// Entry point: one workload per invocation.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gdi_bench --workload "
               "<oltp_linkbench|oltp_hot|olap|wire> --seed N --seconds S "
               "--trace 0|1 [--run-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  if (argc % 2 != 1) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--run-dir") a.run_dir = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!(a.seconds > 0)) return usage();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::filesystem::create_directories(a.run_dir);
  if (a.workload == "oltp_linkbench" || a.workload == "oltp_hot") return perfbench::run_oltp(a);
  if (a.workload == "olap") return perfbench::run_olap(a);
  if (a.workload == "wire") return perfbench::run_wire(a);
  return usage();
}
