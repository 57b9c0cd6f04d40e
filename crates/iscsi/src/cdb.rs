//! SCSI Command Descriptor Blocks for the block-storage command subset.

use crate::error::IscsiError;

/// The SCSI commands the target serves, with their SBC-2 wire encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cdb {
    /// `TEST UNIT READY` (opcode 0x00).
    TestUnitReady,
    /// `READ(10)` (opcode 0x28): read `blocks` blocks starting at `lba`.
    Read10 {
        /// Starting logical block address.
        lba: u32,
        /// Number of blocks to transfer.
        blocks: u16,
    },
    /// `WRITE(10)` (opcode 0x2A): write `blocks` blocks starting at
    /// `lba`.
    Write10 {
        /// Starting logical block address.
        lba: u32,
        /// Number of blocks to transfer.
        blocks: u16,
    },
    /// `READ CAPACITY(10)` (opcode 0x25).
    ReadCapacity10,
    /// `SYNCHRONIZE CACHE(10)` (opcode 0x35).
    SynchronizeCache10,
}

impl Cdb {
    /// Encodes into the 16-byte CDB field of a SCSI Command PDU.
    pub(crate) fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        match self {
            Cdb::TestUnitReady => {}
            Cdb::Read10 { lba, blocks } => {
                b[0] = 0x28;
                b[2..6].copy_from_slice(&lba.to_be_bytes());
                b[7..9].copy_from_slice(&blocks.to_be_bytes());
            }
            Cdb::Write10 { lba, blocks } => {
                b[0] = 0x2a;
                b[2..6].copy_from_slice(&lba.to_be_bytes());
                b[7..9].copy_from_slice(&blocks.to_be_bytes());
            }
            Cdb::ReadCapacity10 => b[0] = 0x25,
            Cdb::SynchronizeCache10 => b[0] = 0x35,
        }
        b
    }

    /// Decodes a CDB field.
    ///
    /// # Errors
    ///
    /// Returns [`IscsiError::Protocol`] for operation codes outside the
    /// supported subset.
    pub(crate) fn from_bytes(b: &[u8; 16]) -> Result<Self, IscsiError> {
        Ok(match b[0] {
            0x00 => Cdb::TestUnitReady,
            0x25 => Cdb::ReadCapacity10,
            0x28 => Cdb::Read10 {
                lba: u32::from_be_bytes(b[2..6].try_into().unwrap()),
                blocks: u16::from_be_bytes(b[7..9].try_into().unwrap()),
            },
            0x2a => Cdb::Write10 {
                lba: u32::from_be_bytes(b[2..6].try_into().unwrap()),
                blocks: u16::from_be_bytes(b[7..9].try_into().unwrap()),
            },
            0x35 => Cdb::SynchronizeCache10,
            other => {
                return Err(IscsiError::Protocol(format!(
                    "unsupported scsi opcode 0x{other:02x}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read10_layout_matches_sbc() {
        let b = Cdb::Read10 {
            lba: 0x0102_0304,
            blocks: 0x0506,
        }
        .to_bytes();
        assert_eq!(b[0], 0x28);
        assert_eq!(&b[2..6], &[1, 2, 3, 4]);
        assert_eq!(&b[7..9], &[5, 6]);
    }

    #[test]
    fn all_variants_roundtrip() {
        for cdb in [
            Cdb::TestUnitReady,
            Cdb::Read10 { lba: 7, blocks: 3 },
            Cdb::Write10 {
                lba: u32::MAX,
                blocks: u16::MAX,
            },
            Cdb::ReadCapacity10,
            Cdb::SynchronizeCache10,
        ] {
            assert_eq!(Cdb::from_bytes(&cdb.to_bytes()).unwrap(), cdb);
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut b = [0u8; 16];
        b[0] = 0x12; // INQUIRY — deliberately unsupported
        assert!(Cdb::from_bytes(&b).is_err());
    }

    proptest! {
        #[test]
        fn prop_cdb_decode_never_panics(bytes in any::<[u8; 16]>()) {
            let _ = Cdb::from_bytes(&bytes);
        }

        #[test]
        fn prop_rw_roundtrip(lba in any::<u32>(), blocks in any::<u16>(), write in any::<bool>()) {
            let cdb = if write {
                Cdb::Write10 { lba, blocks }
            } else {
                Cdb::Read10 { lba, blocks }
            };
            prop_assert_eq!(Cdb::from_bytes(&cdb.to_bytes()).unwrap(), cdb);
        }
    }
}
