// Table 1: the five correctness micro-benchmarks (A..E).
//
// Runs each interleaving/recursion variant through the transparent
// instrumentation path and prints the traced function inventory with
// call counts and inclusive times, checking the structural expectations
// the paper's Table 1 encodes (one function, multiple, interleaving,
// recursion with interleaving).
#include "bench_util.hpp"
#include "micro/micro.hpp"

namespace {

using bench_util::shape_check;
using tempest::core::Session;
using tempest::core::Workbench;

struct Variant {
  const char* name;
  void (*fn)(const micro::MicroParams&);
  const char* description;
};

const tempest::parser::FunctionProfile* find(
    const tempest::parser::RunProfile& profile, const std::string& substring) {
  for (const auto& node : profile.nodes) {
    for (const auto& fn : node.functions) {
      if (fn.name.find(substring) != std::string::npos) return &fn;
    }
  }
  return nullptr;
}

}  // namespace

int main() {
  bench_util::banner(
      "Table 1 reproduction: micro-benchmarks A-E (tracing correctness)");

  auto node_config =
      tempest::simnode::make_node_config(tempest::simnode::NodeKind::kX86Basic);
  node_config.package.time_scale = 25.0;
  tempest::simnode::SimNode node(node_config);
  auto& session = Session::instance();
  session.clear_nodes();
  const auto node_id = session.register_sim_node(&node);
  Workbench bench(&node, node_id);

  const Variant variants[] = {
      {"A", &micro::run_micro_a, "main alone"},
      {"B", &micro::run_micro_b, "one function"},
      {"C", &micro::run_micro_c, "multiple functions"},
      {"D", &micro::run_micro_d, "multiple functions with interleaving"},
      {"E", &micro::run_micro_e, "multiple functions with recursion and interleaving"},
  };

  for (const auto& variant : variants) {
    std::cout << "\n-- micro " << variant.name << ": " << variant.description
              << " --\n";
    bench_util::start_session(/*hz=*/20.0);
    bench.attach();
    variant.fn(micro::MicroParams{&bench, 0.01});
    bench.detach();
    const auto profile = bench_util::stop_and_analyze().profile;

    for (const auto& fn : profile.nodes[0].functions) {
      std::printf("  %-60s calls=%-4llu total=%.4fs%s\n", fn.name.c_str(),
                  static_cast<unsigned long long>(fn.calls), fn.total_time_s,
                  fn.significant ? "" : "  [not significant]");
    }

    switch (variant.name[0]) {
      case 'A':
        shape_check("A: no helper functions traced", find(profile, "foo") == nullptr &&
                                                         find(profile, "work_") == nullptr);
        break;
      case 'B':
        shape_check("B: exactly the one worker traced",
                    find(profile, "work_small") != nullptr &&
                        find(profile, "work_medium") == nullptr);
        break;
      case 'C': {
        const auto* s = find(profile, "work_small");
        const auto* m = find(profile, "work_medium");
        shape_check("C: multiple functions traced, medium > small",
                    s != nullptr && m != nullptr &&
                        m->total_time_s > s->total_time_s);
        break;
      }
      case 'D': {
        const auto* f1 = find(profile, "foo1");
        const auto* f2 = find(profile, "foo2");
        shape_check("D: foo1 called once, foo2 twice (nested + direct)",
                    f1 != nullptr && f2 != nullptr && f1->calls == 1 &&
                        f2->calls == 2);
        shape_check("D: foo1 inclusive time dominates",
                    f1 != nullptr && f2 != nullptr &&
                        f1->total_time_s > f2->total_time_s);
        break;
      }
      case 'E': {
        const auto* rec = find(profile, "rec_fn");
        const auto* driver = find(profile, "run_micro_e");
        shape_check("E: recursion counted per call but not double-timed",
                    rec != nullptr && driver != nullptr && rec->calls == 6 &&
                        rec->total_time_s <= driver->total_time_s * 1.001);
        break;
      }
      default:
        break;
    }
  }
  session.clear_nodes();
  return 0;
}
