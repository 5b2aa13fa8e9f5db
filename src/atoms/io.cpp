#include "atoms/io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/constants.h"

namespace ls3df {

namespace {

// Plausible atomic numbers for the cube format (visualization only).
int atomic_number(Species s) {
  switch (s) {
    case Species::kZn: return 30;
    case Species::kTe: return 52;
    case Species::kO: return 8;
    case Species::kCd: return 48;
    case Species::kSe: return 34;
    case Species::kH: return 1;
    case Species::kSi: return 14;
    default: return 0;
  }
}

Species species_from_symbol(const std::string& sym) {
  for (int i = 0; i < static_cast<int>(Species::kCount); ++i) {
    const Species s = static_cast<Species>(i);
    if (sym == species_symbol(s)) return s;
  }
  throw std::runtime_error("read_xyz: unknown species symbol " + sym);
}

}  // namespace

void write_xyz(std::ostream& os, const Structure& s,
               const std::string& comment) {
  const Vec3d L = s.lattice().lengths();
  os << s.size() << "\n";
  os << std::setprecision(12) << "lattice_bohr=" << L.x << "," << L.y << ","
     << L.z;
  if (!comment.empty()) os << " " << comment;
  os << "\n";
  os << std::fixed << std::setprecision(8);
  for (const auto& a : s.atoms()) {
    const Vec3d p = a.position * units::kBohrToAngstrom;
    os << species_symbol(a.species) << " " << p.x << " " << p.y << " "
       << p.z << "\n";
  }
}

bool write_xyz_file(const std::string& path, const Structure& s,
                    const std::string& comment) {
  std::ofstream out(path);
  if (!out) return false;
  write_xyz(out, s, comment);
  return static_cast<bool>(out);
}

Structure read_xyz(std::istream& is) {
  int n = 0;
  if (!(is >> n) || n < 0) throw std::runtime_error("read_xyz: bad count");
  std::string rest;
  std::getline(is, rest);  // end of count line
  std::string comment;
  std::getline(is, comment);

  const std::string tag = "lattice_bohr=";
  const auto pos = comment.find(tag);
  if (pos == std::string::npos)
    throw std::runtime_error("read_xyz: missing lattice_bohr tag");
  Vec3d L;
  char comma;
  std::istringstream lat(comment.substr(pos + tag.size()));
  if (!(lat >> L.x >> comma >> L.y >> comma >> L.z))
    throw std::runtime_error("read_xyz: malformed lattice");
  for (int i = 0; i < 3; ++i)
    if (!(L[i] > 0))
      throw std::runtime_error("read_xyz: lattice lengths must be positive");

  Structure s{Lattice(L)};  // braces: avoid the most vexing parse
  for (int i = 0; i < n; ++i) {
    std::string sym;
    Vec3d p;
    if (!(is >> sym >> p.x >> p.y >> p.z))
      throw std::runtime_error("read_xyz: truncated atom list");
    const Vec3d bohr = p * units::kAngstromToBohr;
    if (!std::isfinite(bohr.x) || !std::isfinite(bohr.y) ||
        !std::isfinite(bohr.z))
      throw std::runtime_error("read_xyz: non-finite atom coordinate");
    s.add_atom(species_from_symbol(sym), bohr);
  }
  return s;
}

Structure read_xyz_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_xyz_file: cannot open " + path);
  return read_xyz(in);
}

void write_cube(std::ostream& os, const Structure& s, const FieldR& field,
                const std::string& title) {
  const Vec3i shape = field.shape();
  const Vec3d L = s.lattice().lengths();
  os << title << "\n";
  os << "generated by ls3df (periodic cell; axes in Bohr)\n";
  os << std::setw(5) << s.size() << std::fixed << std::setprecision(6)
     << std::setw(13) << 0.0 << std::setw(13) << 0.0 << std::setw(13) << 0.0
     << "\n";
  // Voxel axes.
  os << std::setw(5) << shape.x << std::setw(13) << L.x / shape.x
     << std::setw(13) << 0.0 << std::setw(13) << 0.0 << "\n";
  os << std::setw(5) << shape.y << std::setw(13) << 0.0 << std::setw(13)
     << L.y / shape.y << std::setw(13) << 0.0 << "\n";
  os << std::setw(5) << shape.z << std::setw(13) << 0.0 << std::setw(13)
     << 0.0 << std::setw(13) << L.z / shape.z << "\n";
  for (const auto& a : s.atoms()) {
    os << std::setw(5) << atomic_number(a.species) << std::setw(13)
       << static_cast<double>(atomic_number(a.species)) << std::setw(13)
       << a.position.x << std::setw(13) << a.position.y << std::setw(13)
       << a.position.z << "\n";
  }
  os << std::scientific << std::setprecision(5);
  int col = 0;
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iy = 0; iy < shape.y; ++iy)
      for (int iz = 0; iz < shape.z; ++iz) {
        os << std::setw(13) << field(ix, iy, iz);
        if (++col % 6 == 0) os << "\n";
      }
  if (col % 6 != 0) os << "\n";
}

}  // namespace ls3df
