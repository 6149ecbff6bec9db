#ifndef ECOCHARGE_ENERGY_SOLAR_H_
#define ECOCHARGE_ENERGY_SOLAR_H_

#include "common/simtime.h"

namespace ecocharge {

/// \brief Clear-sky solar model.
///
/// Computes global horizontal irradiance from the solar elevation angle
/// (declination + hour angle), with a simple air-mass attenuation. This is
/// the deterministic "ceiling" of PV production; the weather process
/// multiplies it by a cloud transmission factor.
struct SolarModel {
  double latitude_deg = 38.0;  ///< site latitude (California-like default)

  /// Solar elevation above the horizon in degrees (negative at night).
  double ElevationDeg(int day_of_year, double hour_of_day) const;

  /// Clear-sky global horizontal irradiance, W/m^2 (0 at night).
  double ClearSkyIrradiance(int day_of_year, double hour_of_day) const;

  /// Convenience overload on simulation time.
  double ClearSkyIrradiance(SimTime t) const {
    return ClearSkyIrradiance(DayOfYear(t), HourOfDay(t));
  }
};

/// Solar constant at the top of the atmosphere, W/m^2.
inline constexpr double kSolarConstant = 1361.0;

/// Zenith transmittance of the clear-sky air-mass law (tau above).
inline constexpr double kClearSkyTransmittance = 0.75;

/// The clear-sky model's largest irradiance, W/m^2: the sun at the zenith
/// (sin h = 1, air mass 1). Irradiance grows with elevation, so no
/// latitude, day or hour exceeds it; it is 1020.75, above the 1000 W/m^2
/// of a nominal kWp wherever the sun climbs past ~79.8 degrees, which
/// happens within +-33.6 degrees of the equator.
inline constexpr double kPeakClearSkyIrradiance =
    kSolarConstant * kClearSkyTransmittance;

}  // namespace ecocharge

#endif  // ECOCHARGE_ENERGY_SOLAR_H_
