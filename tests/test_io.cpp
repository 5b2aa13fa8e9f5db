// File I/O tests: XYZ round trip and cube-file structure.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "atoms/builders.h"
#include "atoms/io.h"
#include "common/constants.h"

namespace ls3df {
namespace {

TEST(Xyz, RoundTripPreservesStructure) {
  Structure s = build_znteo_alloy({2, 2, 1}, 0.1, 7);
  std::stringstream buf;
  write_xyz(buf, s, "alloy test");
  Structure r = read_xyz(buf);
  ASSERT_EQ(r.size(), s.size());
  EXPECT_NEAR(r.lattice().lengths().x, s.lattice().lengths().x, 1e-9);
  EXPECT_NEAR(r.lattice().lengths().z, s.lattice().lengths().z, 1e-9);
  for (int i = 0; i < s.size(); ++i) {
    EXPECT_EQ(r.atom(i).species, s.atom(i).species);
    EXPECT_NEAR(r.atom(i).position.x, s.atom(i).position.x, 1e-6);
    EXPECT_NEAR(r.atom(i).position.y, s.atom(i).position.y, 1e-6);
    EXPECT_NEAR(r.atom(i).position.z, s.atom(i).position.z, 1e-6);
  }
}

TEST(Xyz, PositionsWrittenInAngstrom) {
  Structure s(Lattice::cubic(units::kAngstromToBohr));  // 1 Angstrom box
  s.add_atom(Species::kH, {units::kAngstromToBohr, 0, 0});
  std::stringstream buf;
  write_xyz(buf, s);
  std::string line;
  std::getline(buf, line);  // count
  std::getline(buf, line);  // comment
  std::string sym;
  double x, y, z;
  buf >> sym >> x >> y >> z;
  EXPECT_EQ(sym, "H");
  EXPECT_NEAR(x, 1.0, 1e-9);  // 1 Angstrom
}

TEST(Xyz, RejectsMalformedInput) {
  std::stringstream bad1("2\nno lattice tag here\nH 0 0 0\nH 1 1 1\n");
  EXPECT_THROW(read_xyz(bad1), std::runtime_error);
  std::stringstream bad2("3\nlattice_bohr=5,5,5\nH 0 0 0\n");  // truncated
  EXPECT_THROW(read_xyz(bad2), std::runtime_error);
  std::stringstream bad3("1\nlattice_bohr=5,5,5\nXx 0 0 0\n");
  EXPECT_THROW(read_xyz(bad3), std::runtime_error);
  // Impossible cells and coordinates that overflow the Angstrom -> Bohr
  // conversion are rejected, not handed to Lattice / Structure.
  std::stringstream zero_len("1\nlattice_bohr=0,5,5\nH 0 0 0\n");
  EXPECT_THROW(read_xyz(zero_len), std::runtime_error);
  std::stringstream neg_len("1\nlattice_bohr=-5,5,5\nH 0 0 0\n");
  EXPECT_THROW(read_xyz(neg_len), std::runtime_error);
  std::stringstream huge("1\nlattice_bohr=5,5,5\nH 1e308 0 0\n");
  EXPECT_THROW(read_xyz(huge), std::runtime_error);
}

TEST(Xyz, FileRoundTrip) {
  Structure s = build_model_znteo({2, 1, 1}, 1, 3);
  const std::string path = "/tmp/ls3df_test_structure.xyz";
  ASSERT_TRUE(write_xyz_file(path, s, "model"));
  Structure r = read_xyz_file(path);
  EXPECT_EQ(r.size(), s.size());
  EXPECT_EQ(r.count_species(Species::kO), 1);
  std::remove(path.c_str());
}

TEST(Cube, HeaderAndValueCount) {
  Structure s(Lattice({4.0, 6.0, 8.0}));
  s.add_atom(Species::kO, {2.0, 3.0, 4.0});
  FieldR f({2, 3, 4});
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = 0.5 * static_cast<double>(i);
  std::stringstream buf;
  write_cube(buf, s, f, "density");

  std::string line;
  std::getline(buf, line);
  EXPECT_EQ(line, "density");
  std::getline(buf, line);  // comment
  int natoms;
  double ox, oy, oz;
  buf >> natoms >> ox >> oy >> oz;
  EXPECT_EQ(natoms, 1);
  int nx;
  double ax, ay, az;
  buf >> nx >> ax >> ay >> az;
  EXPECT_EQ(nx, 2);
  EXPECT_NEAR(ax, 2.0, 1e-9);  // 4.0 Bohr / 2 points
  int ny, nz;
  double tmp;
  buf >> ny >> tmp >> tmp >> tmp >> nz >> tmp >> tmp >> tmp;
  EXPECT_EQ(ny, 3);
  EXPECT_EQ(nz, 4);
  // Atom record: Z, charge, position.
  int z;
  double q, px, py, pz;
  buf >> z >> q >> px >> py >> pz;
  EXPECT_EQ(z, 8);
  EXPECT_NEAR(px, 2.0, 1e-6);
  // All 24 values present, z fastest.
  double v, first = -1;
  int count = 0;
  while (buf >> v) {
    if (count == 0) first = v;
    ++count;
  }
  EXPECT_EQ(count, 24);
  EXPECT_NEAR(first, f(0, 0, 0), 1e-9);
}

}  // namespace
}  // namespace ls3df
