// Atomic structure: a periodic lattice plus atoms with Cartesian positions
// (Bohr). This is the system description fed to both the direct DFT engine
// and the LS3DF fragment decomposition.
#pragma once

#include <vector>

#include "atoms/species.h"
#include "common/vec3.h"
#include "grid/lattice.h"

namespace ls3df {

struct Atom {
  Species species;
  Vec3d position;  // Cartesian, Bohr
};

class Structure {
 public:
  Structure() = default;
  explicit Structure(Lattice lattice) : lattice_(lattice) {}

  const Lattice& lattice() const { return lattice_; }
  Lattice& lattice() { return lattice_; }

  void add_atom(Species s, const Vec3d& cart) {
    atoms_.push_back({s, cart});
  }

  int size() const { return static_cast<int>(atoms_.size()); }
  const Atom& atom(int i) const { return atoms_[i]; }
  Atom& atom(int i) { return atoms_[i]; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  std::vector<Atom>& atoms() { return atoms_; }

  // Total valence electron count (the DFT engine fills N/2 bands).
  double num_electrons() const {
    double n = 0;
    for (const auto& a : atoms_) n += species_valence(a.species);
    return n;
  }

  int count_species(Species s) const {
    int n = 0;
    for (const auto& a : atoms_)
      if (a.species == s) ++n;
    return n;
  }

  // Wrap all atoms into the home cell [0, L) along each axis.
  void wrap_positions() {
    for (auto& a : atoms_) {
      Vec3d f = lattice_.fractional(a.position);
      for (int i = 0; i < 3; ++i) f[i] -= std::floor(f[i]);
      a.position = lattice_.cartesian(f);
    }
  }

 private:
  Lattice lattice_;
  std::vector<Atom> atoms_;
};

}  // namespace ls3df
