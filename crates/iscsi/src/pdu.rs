//! PDU and Basic Header Segment encoding.

use crate::error::IscsiError;

/// Length of the Basic Header Segment in bytes, per RFC 3720.
pub(crate) const BHS_LEN: usize = 48;

/// Maximum data segment length we ever accept (24-bit field upper bound).
const MAX_DATA_SEGMENT: usize = (1 << 24) - 1;

/// iSCSI opcodes (the subset this implementation speaks).
///
/// Values match RFC 3720 §10.2.1.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Initiator → target keep-alive / ping.
    NopOut = 0x00,
    /// SCSI command carrying a CDB.
    ScsiCommand = 0x01,
    /// Login request (leading PDU of a session).
    LoginRequest = 0x03,
    /// SCSI Data-Out (write payload; we use immediate data instead, but
    /// the opcode is decoded for completeness).
    DataOut = 0x05,
    /// Logout request.
    LogoutRequest = 0x06,
    /// Target → initiator NOP.
    NopIn = 0x20,
    /// SCSI response with status.
    ScsiResponse = 0x21,
    /// Login response.
    LoginResponse = 0x23,
    /// SCSI Data-In (read payload).
    DataIn = 0x25,
    /// Logout response.
    LogoutResponse = 0x26,
    /// Ready-to-transfer (R2T) — decoded but never emitted (immediate
    /// data mode).
    R2t = 0x31,
}

impl Opcode {
    /// Parses a wire opcode byte (immediate-delivery bit 0x40 is
    /// tolerated and masked off).
    ///
    /// # Errors
    ///
    /// Returns [`IscsiError::Protocol`] for opcodes outside the supported
    /// subset.
    pub(crate) fn from_wire(byte: u8) -> Result<Self, IscsiError> {
        Ok(match byte & 0x3f {
            0x00 => Opcode::NopOut,
            0x01 => Opcode::ScsiCommand,
            0x03 => Opcode::LoginRequest,
            0x05 => Opcode::DataOut,
            0x06 => Opcode::LogoutRequest,
            0x20 => Opcode::NopIn,
            0x21 => Opcode::ScsiResponse,
            0x23 => Opcode::LoginResponse,
            0x25 => Opcode::DataIn,
            0x26 => Opcode::LogoutResponse,
            0x31 => Opcode::R2t,
            other => {
                return Err(IscsiError::Protocol(format!(
                    "unsupported opcode 0x{other:02x}"
                )))
            }
        })
    }
}

/// SCSI status codes carried in a [`Opcode::ScsiResponse`] PDU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum ScsiStatus {
    /// Command completed successfully.
    Good = 0x00,
    /// Command failed; sense data describes why.
    CheckCondition = 0x02,
    /// Device busy.
    Busy = 0x08,
}

impl ScsiStatus {
    /// Parses a wire status byte.
    ///
    /// # Errors
    ///
    /// Returns [`IscsiError::Protocol`] for statuses outside the
    /// supported subset.
    pub(crate) fn from_wire(byte: u8) -> Result<Self, IscsiError> {
        Ok(match byte {
            0x00 => ScsiStatus::Good,
            0x02 => ScsiStatus::CheckCondition,
            0x08 => ScsiStatus::Busy,
            other => {
                return Err(IscsiError::Protocol(format!(
                    "unsupported scsi status 0x{other:02x}"
                )))
            }
        })
    }
}

/// The 48-byte Basic Header Segment.
///
/// Field layout (matching RFC 3720's SCSI Command PDU, reused for all
/// opcodes we speak):
///
/// ```text
/// byte  0      opcode
/// byte  1      flags (bit7 = Final, bit6 = opcode-specific, low bits status)
/// bytes 2-3    reserved
/// byte  4      TotalAHSLength (always 0 here)
/// bytes 5-7    DataSegmentLength (24-bit big-endian)
/// bytes 8-15   LUN (big-endian)
/// bytes 16-19  Initiator Task Tag
/// bytes 20-23  Expected Data Transfer Length / Target Transfer Tag / offset
/// bytes 24-27  CmdSN / ExpCmdSN / DataSN
/// bytes 28-31  ExpStatSN / StatSN
/// bytes 32-47  CDB (SCSI Command) or reserved
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bhs {
    /// PDU opcode.
    pub(crate) opcode: Opcode,
    /// Flags byte; bit 0x80 marks the final PDU of a sequence.
    pub(crate) flags: u8,
    /// Logical unit number.
    pub(crate) lun: u64,
    /// Initiator task tag correlating requests and responses.
    pub(crate) itt: u32,
    /// Expected data transfer length, buffer offset, or transfer tag
    /// depending on the opcode.
    pub(crate) dword5: u32,
    /// Command sequence number (or DataSN for Data-In).
    pub(crate) cmd_sn: u32,
    /// Expected status sequence number (or StatSN on responses).
    pub(crate) exp_stat_sn: u32,
    /// Embedded CDB for SCSI Command PDUs; zeroed otherwise.
    pub(crate) cdb: [u8; 16],
}

impl Bhs {
    /// Creates a header with all sequence fields zeroed.
    pub(crate) fn new(opcode: Opcode) -> Self {
        Self {
            opcode,
            flags: 0x80,
            lun: 0,
            itt: 0,
            dword5: 0,
            cmd_sn: 0,
            exp_stat_sn: 0,
            cdb: [0; 16],
        }
    }

    /// Whether the final bit is set.
    pub(crate) fn is_final(&self) -> bool {
        self.flags & 0x80 != 0
    }
}

/// One iSCSI PDU: header plus data segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pdu {
    /// The Basic Header Segment.
    pub(crate) bhs: Bhs,
    /// The data segment (possibly empty).
    pub(crate) data: Vec<u8>,
}

impl Pdu {
    /// Creates a PDU with an empty data segment.
    pub(crate) fn new(opcode: Opcode) -> Self {
        Self {
            bhs: Bhs::new(opcode),
            data: Vec::new(),
        }
    }

    /// Creates a PDU carrying `data`.
    pub fn with_data(opcode: Opcode, data: Vec<u8>) -> Self {
        Self {
            bhs: Bhs::new(opcode),
            data,
        }
    }

    /// Serializes to wire bytes (48-byte BHS + data segment).
    ///
    /// # Panics
    ///
    /// Panics if the data segment exceeds the 24-bit length field — the
    /// initiator/target never construct such PDUs.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.data.len() <= MAX_DATA_SEGMENT,
            "data segment exceeds 24-bit length"
        );
        let mut out = vec![0u8; BHS_LEN + self.data.len()];
        out[0] = self.bhs.opcode as u8;
        out[1] = self.bhs.flags;
        // bytes 2-4 reserved / TotalAHSLength = 0
        let dlen = self.data.len() as u32;
        out[5] = (dlen >> 16) as u8;
        out[6] = (dlen >> 8) as u8;
        out[7] = dlen as u8;
        out[8..16].copy_from_slice(&self.bhs.lun.to_be_bytes());
        out[16..20].copy_from_slice(&self.bhs.itt.to_be_bytes());
        out[20..24].copy_from_slice(&self.bhs.dword5.to_be_bytes());
        out[24..28].copy_from_slice(&self.bhs.cmd_sn.to_be_bytes());
        out[28..32].copy_from_slice(&self.bhs.exp_stat_sn.to_be_bytes());
        out[32..48].copy_from_slice(&self.bhs.cdb);
        out[BHS_LEN..].copy_from_slice(&self.data);
        out
    }

    /// Parses wire bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`IscsiError::Protocol`] when the buffer is shorter than a
    /// BHS, the declared data segment length disagrees with the buffer,
    /// or the opcode is unsupported.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IscsiError> {
        if bytes.len() < BHS_LEN {
            return Err(IscsiError::Protocol(format!(
                "pdu of {} bytes is shorter than the 48-byte BHS",
                bytes.len()
            )));
        }
        let opcode = Opcode::from_wire(bytes[0])?;
        let dlen = ((bytes[5] as usize) << 16) | ((bytes[6] as usize) << 8) | bytes[7] as usize;
        if bytes.len() != BHS_LEN + dlen {
            return Err(IscsiError::Protocol(format!(
                "data segment length {dlen} disagrees with pdu size {}",
                bytes.len()
            )));
        }
        let mut cdb = [0u8; 16];
        cdb.copy_from_slice(&bytes[32..48]);
        Ok(Self {
            bhs: Bhs {
                opcode,
                flags: bytes[1],
                lun: u64::from_be_bytes(bytes[8..16].try_into().unwrap()),
                itt: u32::from_be_bytes(bytes[16..20].try_into().unwrap()),
                dword5: u32::from_be_bytes(bytes[20..24].try_into().unwrap()),
                cmd_sn: u32::from_be_bytes(bytes[24..28].try_into().unwrap()),
                exp_stat_sn: u32::from_be_bytes(bytes[28..32].try_into().unwrap()),
                cdb,
            },
            data: bytes[BHS_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_fields() {
        let mut pdu = Pdu::with_data(Opcode::ScsiCommand, vec![1, 2, 3, 4]);
        pdu.bhs.flags = 0xc1;
        pdu.bhs.lun = 0x0123_4567_89ab_cdef;
        pdu.bhs.itt = 0xdead_beef;
        pdu.bhs.dword5 = 42;
        pdu.bhs.cmd_sn = 7;
        pdu.bhs.exp_stat_sn = 9;
        pdu.bhs.cdb = [0x2a; 16];
        let bytes = pdu.to_bytes();
        assert_eq!(bytes.len(), BHS_LEN + 4);
        assert_eq!(Pdu::from_bytes(&bytes).unwrap(), pdu);
    }

    #[test]
    fn empty_data_segment_roundtrips() {
        let pdu = Pdu::new(Opcode::NopOut);
        let bytes = pdu.to_bytes();
        assert_eq!(bytes.len(), BHS_LEN);
        assert_eq!(Pdu::from_bytes(&bytes).unwrap(), pdu);
    }

    #[test]
    fn short_buffer_is_rejected() {
        assert!(Pdu::from_bytes(&[0u8; 47]).is_err());
        assert!(Pdu::from_bytes(&[]).is_err());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut bytes = Pdu::with_data(Opcode::NopOut, vec![0; 10]).to_bytes();
        bytes.pop();
        assert!(Pdu::from_bytes(&bytes).is_err());
        bytes.extend_from_slice(&[0, 0]);
        assert!(Pdu::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut bytes = Pdu::new(Opcode::NopOut).to_bytes();
        bytes[0] = 0x3e;
        assert!(matches!(
            Pdu::from_bytes(&bytes),
            Err(IscsiError::Protocol(_))
        ));
    }

    #[test]
    fn immediate_bit_is_masked() {
        let mut bytes = Pdu::new(Opcode::ScsiCommand).to_bytes();
        bytes[0] = 0x41; // immediate-delivery SCSI command
        assert_eq!(
            Pdu::from_bytes(&bytes).unwrap().bhs.opcode,
            Opcode::ScsiCommand
        );
    }

    #[test]
    fn final_flag_detection() {
        let mut bhs = Bhs::new(Opcode::DataIn);
        assert!(bhs.is_final());
        bhs.flags = 0;
        assert!(!bhs.is_final());
    }

    #[test]
    fn status_parse() {
        assert_eq!(ScsiStatus::from_wire(0).unwrap(), ScsiStatus::Good);
        assert_eq!(
            ScsiStatus::from_wire(2).unwrap(),
            ScsiStatus::CheckCondition
        );
        assert!(ScsiStatus::from_wire(0x55).is_err());
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Arbitrary wire garbage must produce Err, never a panic.
            let _ = Pdu::from_bytes(&bytes);
        }

        #[test]
        fn prop_pdu_roundtrip(flags in any::<u8>(), lun in any::<u64>(), itt in any::<u32>(),
                              dword5 in any::<u32>(), cmd_sn in any::<u32>(),
                              exp in any::<u32>(), cdb in any::<[u8; 16]>(),
                              data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut pdu = Pdu::with_data(Opcode::ScsiResponse, data);
            pdu.bhs.flags = flags;
            pdu.bhs.lun = lun;
            pdu.bhs.itt = itt;
            pdu.bhs.dword5 = dword5;
            pdu.bhs.cmd_sn = cmd_sn;
            pdu.bhs.exp_stat_sn = exp;
            pdu.bhs.cdb = cdb;
            let back = Pdu::from_bytes(&pdu.to_bytes()).unwrap();
            prop_assert_eq!(back, pdu);
        }
    }
}
