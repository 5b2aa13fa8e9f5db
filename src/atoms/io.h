// Structure and volumetric-data file I/O: XYZ for atomic geometries and
// Gaussian cube files for densities / potentials / band amplitudes --
// the formats needed to actually render the paper's Fig. 7 isosurfaces
// in standard viewers (VESTA, VMD, XCrySDen).
#pragma once

#include <iosfwd>
#include <string>

#include "atoms/structure.h"
#include "grid/field3d.h"

namespace ls3df {

// XYZ (positions converted to Angstrom, as the format expects). The
// comment line records the lattice for round-tripping.
void write_xyz(std::ostream& os, const Structure& s,
               const std::string& comment = "");
bool write_xyz_file(const std::string& path, const Structure& s,
                    const std::string& comment = "");

// Parse an XYZ stream written by write_xyz (requires the lattice tag in
// the comment line). Throws std::runtime_error on malformed input.
Structure read_xyz(std::istream& is);
Structure read_xyz_file(const std::string& path);

// Gaussian cube file of a scalar field on the structure's periodic grid
// (values in the field's native units; positions in Bohr as the cube
// format specifies).
void write_cube(std::ostream& os, const Structure& s, const FieldR& field,
                const std::string& title = "ls3df field");

}  // namespace ls3df
