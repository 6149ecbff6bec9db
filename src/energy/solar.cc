#include "energy/solar.h"

#include <algorithm>
#include <cmath>

namespace ecocharge {

namespace {
constexpr double kDegToRad = M_PI / 180.0;
constexpr double kRadToDeg = 180.0 / M_PI;
}  // namespace

double SolarModel::ElevationDeg(int day_of_year, double hour_of_day) const {
  // Cooper's declination formula.
  double declination =
      23.45 * std::sin(2.0 * M_PI * (284.0 + day_of_year) / 365.0);
  double hour_angle = 15.0 * (hour_of_day - 12.0);  // degrees, solar noon = 0
  double lat = latitude_deg * kDegToRad;
  double dec = declination * kDegToRad;
  double ha = hour_angle * kDegToRad;
  double sin_elev = std::sin(lat) * std::sin(dec) +
                    std::cos(lat) * std::cos(dec) * std::cos(ha);
  return std::asin(std::clamp(sin_elev, -1.0, 1.0)) * kRadToDeg;
}

double SolarModel::ClearSkyIrradiance(int day_of_year,
                                      double hour_of_day) const {
  double elev = ElevationDeg(day_of_year, hour_of_day);
  if (elev <= 0.0) return 0.0;
  double sin_elev = std::sin(elev * kDegToRad);
  // Kasten-Young style air-mass attenuation collapsed to a simple
  // transmittance power law: tau^(1/sin(h)) with tau = 0.75.
  double air_mass = 1.0 / std::max(sin_elev, 1e-3);
  double transmittance =
      std::pow(kClearSkyTransmittance, std::min(air_mass, 38.0));
  return kSolarConstant * sin_elev * transmittance;
}

}  // namespace ecocharge
