//! Sensitive hardware devices.
//!
//! The paper protects "privacy-sensitive hardware devices such as the
//! microphone or camera" plus arbitrary sensors. Devices here are synthetic:
//! reading one yields deterministic sample bytes, which is enough for the
//! empirical experiment (§V-D) to observe exactly *what* spyware would have
//! captured with and without Overhaul.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{Errno, SysResult};

/// Identifier of a registered device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Creates a `DeviceId` from its raw value.
    pub const fn from_raw(raw: u32) -> Self {
        DeviceId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{}", self.0)
    }
}

/// The class of a sensitive device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Audio capture.
    Microphone,
    /// Video capture.
    Camera,
    /// Any other attached sensor (GPS, accelerometer, ...).
    Sensor,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceClass::Microphone => "microphone",
            DeviceClass::Camera => "camera",
            DeviceClass::Sensor => "sensor",
        })
    }
}

/// A registered hardware device.
#[derive(Debug, Clone)]
pub struct Device {
    id: DeviceId,
    class: DeviceClass,
    label: String,
    opens: u64,
    samples_served: u64,
}

impl Device {
    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Device class.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Human-readable label ("built-in mic").
    pub fn label(&self) -> &str {
        &self.label
    }

    /// How many times the device node has been successfully opened.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// How many sample reads the device has served.
    pub fn samples_served(&self) -> u64 {
        self.samples_served
    }
}

/// Registry of all sensitive devices attached to the simulated machine.
#[derive(Debug, Clone, Default)]
pub struct DeviceRegistry {
    devices: BTreeMap<DeviceId, Device>,
    next: u32,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Attaches a new device and returns its id.
    pub fn register(&mut self, class: DeviceClass, label: impl Into<String>) -> DeviceId {
        self.next += 1;
        let id = DeviceId(self.next);
        self.devices.insert(
            id,
            Device {
                id,
                class,
                label: label.into(),
                opens: 0,
                samples_served: 0,
            },
        );
        id
    }

    /// Looks up a device.
    pub fn get(&self, id: DeviceId) -> SysResult<&Device> {
        self.devices.get(&id).ok_or(Errno::Enodev)
    }

    /// Per-open driver bring-up cost. Table I measures 45.2 s for 10 M
    /// baseline opens of the microphone node — about 4.5 µs per `open(2)`
    /// — so the simulated driver performs that much work.
    pub const DRIVER_OPEN_COST_NANOS: u64 = 4_500;

    /// Records a successful open of the device node, performing the
    /// calibrated driver bring-up work.
    pub fn record_open(&mut self, id: DeviceId) -> SysResult<()> {
        let device = self.devices.get_mut(&id).ok_or(Errno::Enodev)?;
        device.opens += 1;
        overhaul_sim::work::spin_nanos(Self::DRIVER_OPEN_COST_NANOS);
        Ok(())
    }

    /// Reads one synthetic sample from the device: for a microphone a PCM
    /// chunk, for a camera a frame. The content is deterministic per device
    /// and sequence number so experiments can assert exactly what leaked.
    pub fn read_sample(&mut self, id: DeviceId) -> SysResult<Vec<u8>> {
        let device = self.devices.get_mut(&id).ok_or(Errno::Enodev)?;
        device.samples_served += 1;
        let tag = match device.class {
            DeviceClass::Microphone => "pcm",
            DeviceClass::Camera => "frame",
            DeviceClass::Sensor => "reading",
        };
        Ok(format!("{}:{}:{}", tag, device.label, device.samples_served).into_bytes())
    }

    /// All registered devices in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

mod pack {
    //! Snapshot codec for the device registry.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{Device, DeviceClass, DeviceId, DeviceRegistry};

    impl_pack_newtype!(DeviceId, u32);

    impl Pack for DeviceClass {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                DeviceClass::Microphone => 0,
                DeviceClass::Camera => 1,
                DeviceClass::Sensor => 2,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => DeviceClass::Microphone,
                1 => DeviceClass::Camera,
                2 => DeviceClass::Sensor,
                _ => return Err(SnapshotError::BadValue("device class")),
            })
        }
    }

    impl_pack!(Device {
        id,
        class,
        label,
        opens,
        samples_served
    });
    impl_pack!(DeviceRegistry { devices, next });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = DeviceRegistry::new();
        let mic = reg.register(DeviceClass::Microphone, "headset mic");
        let dev = reg.get(mic).unwrap();
        assert_eq!(dev.class(), DeviceClass::Microphone);
        assert_eq!(dev.label(), "headset mic");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn missing_device_is_enodev() {
        let reg = DeviceRegistry::new();
        assert_eq!(reg.get(DeviceId::from_raw(9)).err(), Some(Errno::Enodev));
    }

    #[test]
    fn open_counter_increments() {
        let mut reg = DeviceRegistry::new();
        let cam = reg.register(DeviceClass::Camera, "webcam");
        reg.record_open(cam).unwrap();
        reg.record_open(cam).unwrap();
        assert_eq!(reg.get(cam).unwrap().opens(), 2);
    }

    #[test]
    fn samples_are_deterministic_and_sequenced() {
        let mut reg = DeviceRegistry::new();
        let mic = reg.register(DeviceClass::Microphone, "mic");
        let s1 = reg.read_sample(mic).unwrap();
        let s2 = reg.read_sample(mic).unwrap();
        assert_eq!(s1, b"pcm:mic:1".to_vec());
        assert_eq!(s2, b"pcm:mic:2".to_vec());
    }

    #[test]
    fn sample_tag_matches_class() {
        let mut reg = DeviceRegistry::new();
        let cam = reg.register(DeviceClass::Camera, "cam");
        let sensor = reg.register(DeviceClass::Sensor, "gps");
        assert!(String::from_utf8(reg.read_sample(cam).unwrap())
            .unwrap()
            .starts_with("frame:"));
        assert!(String::from_utf8(reg.read_sample(sensor).unwrap())
            .unwrap()
            .starts_with("reading:"));
    }

    #[test]
    fn ids_are_unique() {
        let mut reg = DeviceRegistry::new();
        let a = reg.register(DeviceClass::Camera, "a");
        let b = reg.register(DeviceClass::Camera, "b");
        assert_ne!(a, b);
    }
}
