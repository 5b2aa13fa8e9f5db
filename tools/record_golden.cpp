// Re-records the bit tier of tests/golden_refs.h.
//
//   ./build/tools/record_golden tests/golden_refs.h
//
// Reruns every golden case in its reference configuration (one worker,
// default execution shape), prints each recorded value that changed as
// "case field: old -> new" (old = the values this binary was compiled
// with), and rewrites the block between the "recorded bits" markers of
// the given file. The physics tier lies outside that block and is never
// touched. Exit status 0 on success, 1 on a usage or file error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/golden_refs.h"

namespace {

using namespace ls3df;

const char kBegin[] =
    "// --- recorded bits: begin (tools/record_golden rewrites this block) "
    "---\n";
const char kEnd[] = "// --- recorded bits: end ---\n";

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hash(std::uint64_t h) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "0x%llxull",
                static_cast<unsigned long long>(h));
  return buf;
}

// A brace list of hexfloats, three per line under the opening brace.
std::string series(const std::vector<double>& v) {
  std::string s = "{";
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k > 0) s += k % 3 == 0 ? ",\n       " : ", ";
    s += hexfloat(v[k]);
  }
  return s + "}";
}

std::string function(const char* type, const char* fn,
                     const std::vector<std::string>& fields) {
  std::string s = std::string("inline const ") + type + "& " + fn +
                  "() {\n  static const " + type + " r{";
  for (std::size_t k = 0; k < fields.size(); ++k)
    s += (k == 0 ? "\n      " : ",\n      ") + fields[k];
  return s + "};\n  return r;\n}\n";
}

std::string quoted(const char* name) { return std::string("\"") + name + "\""; }

// Prints "name what: old -> new" when the bits differ.
void report(const char* name, const std::string& what, const std::string& old_v,
            const std::string& new_v) {
  if (old_v != new_v)
    std::printf("%s %s: %s -> %s\n", name, what.c_str(), old_v.c_str(),
                new_v.c_str());
}

void report_series(const char* name, const char* what,
                   const std::vector<double>& old_v,
                   const std::vector<double>& new_v) {
  const std::size_t n = std::max(old_v.size(), new_v.size());
  for (std::size_t k = 0; k < n; ++k)
    report(name, std::string(what) + "[" + std::to_string(k) + "]",
           k < old_v.size() ? hexfloat(old_v[k]) : "(none)",
           k < new_v.size() ? hexfloat(new_v[k]) : "(none)");
}

std::string record(const char* fn, const golden::Reference& old_ref,
                   const Ls3dfResult& r) {
  const char* name = old_ref.name;
  report(name, "iterations", std::to_string(old_ref.iterations),
         std::to_string(r.iterations));
  report_series(name, "conv_history", old_ref.conv_history, r.conv_history);
  report(name, "charge_patch_error", hexfloat(old_ref.charge_patch_error),
         hexfloat(r.charge_patch_error));
  report(name, "energy.total", hexfloat(old_ref.energy_total),
         hexfloat(r.energy.total));
  report(name, "rho", hash(old_ref.rho_fnv1a), hash(golden::fnv1a(r.rho)));
  report(name, "v_eff", hash(old_ref.v_eff_fnv1a),
         hash(golden::fnv1a(r.v_eff)));
  return function("Reference", fn,
                  {quoted(name), std::to_string(r.iterations),
                   series(r.conv_history), hexfloat(r.charge_patch_error),
                   hexfloat(r.energy.total), hash(golden::fnv1a(r.rho)),
                   hash(golden::fnv1a(r.v_eff))});
}

std::string record(const char* fn, const golden::DirectReference& old_ref,
                   const ScfResult& r) {
  const char* name = old_ref.name;
  report(name, "iterations", std::to_string(old_ref.iterations),
         std::to_string(r.iterations));
  report_series(name, "conv_history", old_ref.conv_history, r.conv_history);
  report(name, "energy.total", hexfloat(old_ref.energy_total),
         hexfloat(r.energy.total));
  report_series(name, "eigenvalues", old_ref.eigenvalues, r.eigenvalues);
  report(name, "rho", hash(old_ref.rho_fnv1a), hash(golden::fnv1a(r.rho)));
  report(name, "v_eff", hash(old_ref.v_eff_fnv1a),
         hash(golden::fnv1a(r.v_eff)));
  return function("DirectReference", fn,
                  {quoted(name), std::to_string(r.iterations),
                   series(r.conv_history), hexfloat(r.energy.total),
                   series(r.eigenvalues), hash(golden::fnv1a(r.rho)),
                   hash(golden::fnv1a(r.v_eff))});
}

std::string record(const char* fn, const golden::FsmReference& old_ref,
                   const FsmResult& r) {
  const char* name = old_ref.name;
  report(name, "iterations", std::to_string(old_ref.iterations),
         std::to_string(r.iterations));
  report_series(name, "eigenvalues", old_ref.eigenvalues, r.eigenvalues);
  report_series(name, "folded_values", old_ref.folded_values,
                r.folded_values);
  report(name, "psi", hash(old_ref.psi_fnv1a), hash(golden::fnv1a(r.psi)));
  return function("FsmReference", fn,
                  {quoted(name), std::to_string(r.iterations),
                   series(r.eigenvalues), series(r.folded_values),
                   hash(golden::fnv1a(r.psi))});
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s tests/golden_refs.h\n", argv[0]);
    return 1;
  }
  std::string text;
  {
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "record_golden: cannot read %s\n", argv[1]);
      return 1;
    }
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  const std::size_t begin = text.find(kBegin);
  const std::size_t end = text.find(kEnd);
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    std::fprintf(stderr, "record_golden: no recorded-bits block in %s\n",
                 argv[1]);
    return 1;
  }

  namespace g = golden;
  const std::vector<std::string> blocks = {
      record("h2_chain3_reference", g::h2_chain3_reference(),
             g::run_ls3df(g::h2_chain(3), g::h2_options(3))),
      record("h2_chain4_reference", g::h2_chain4_reference(),
             g::run_ls3df(g::h2_chain(4), g::h2_options(4))),
      record("fig6_reference", g::fig6_reference(),
             g::run_ls3df(g::fig6_alloy(), g::fig6_options())),
      record("h2_chain3_mixed_reference", g::h2_chain3_mixed_reference(),
             g::run_ls3df(g::h2_chain(3), g::h2_mixed_options())),
      record("fig6_mixed_reference", g::fig6_mixed_reference(),
             g::run_ls3df(g::fig6_alloy(), g::fig6_mixed_options())),
      record("h2_direct_scf_reference", g::h2_direct_scf_reference(),
             g::run_direct_scf()),
      record("h2_fsm_reference", g::h2_fsm_reference(), g::run_fsm()),
  };
  std::string body = kBegin;
  for (const std::string& b : blocks) body += "\n" + b;
  body += "\n";
  text.replace(begin, end - begin, body);

  std::ofstream out(argv[1], std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "record_golden: cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("record_golden: rewrote the recorded bits of %s\n", argv[1]);
  return 0;
}
