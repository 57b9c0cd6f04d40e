//! The iSCSI-lite initiator: client-side session logic.

use prins_net::Transport;

use crate::cdb::Cdb;
use crate::error::IscsiError;
use crate::pdu::{Bhs, ScsiStatus};
use crate::{Opcode, Pdu};

/// An initiator session bound to one transport connection.
///
/// Created by [`Initiator::login`], which performs the login exchange and
/// discovers the target's capacity. All I/O methods are synchronous: they
/// issue a command and block until the matching response arrives.
///
/// See the [crate docs](crate) for a complete initiator/target example.
pub struct Initiator<T> {
    transport: T,
    itt: u32,
    cmd_sn: u32,
    exp_stat_sn: u32,
    num_blocks: u64,
    block_size: u32,
    max_data_segment: usize,
    logged_in: bool,
}

impl<T: Transport> Initiator<T> {
    /// Performs the login exchange and capacity discovery.
    ///
    /// # Errors
    ///
    /// * [`IscsiError::LoginRejected`] if the target refuses the session,
    /// * [`IscsiError::Net`] / [`IscsiError::Protocol`] on transport or
    ///   framing problems.
    pub fn login(transport: T, initiator_name: &str) -> Result<Self, IscsiError> {
        let mut ini = Self {
            transport,
            itt: 0,
            cmd_sn: 1,
            exp_stat_sn: 0,
            num_blocks: 0,
            block_size: 0,
            max_data_segment: 64 * 1024,
            logged_in: false,
        };
        let text = format!(
            "InitiatorName={initiator_name}\0SessionType=Normal\0MaxRecvDataSegmentLength={}\0",
            ini.max_data_segment
        );
        let mut pdu = Pdu::with_data(Opcode::LoginRequest, text.into_bytes());
        pdu.bhs.itt = ini.next_itt();
        ini.send(&pdu)?;
        let resp = ini.recv()?;
        if resp.bhs.opcode != Opcode::LoginResponse {
            return Err(IscsiError::Protocol(format!(
                "expected login response, got {:?}",
                resp.bhs.opcode
            )));
        }
        let text = String::from_utf8_lossy(&resp.data);
        if resp.bhs.flags & 0x01 != 0 {
            return Err(IscsiError::LoginRejected(text.into_owned()));
        }
        // Honour the target's MaxRecvDataSegmentLength if smaller.
        for kv in text.split('\0') {
            if let Some(v) = kv.strip_prefix("MaxRecvDataSegmentLength=") {
                if let Ok(v) = v.parse::<usize>() {
                    ini.max_data_segment = ini.max_data_segment.min(v);
                }
            }
        }
        ini.logged_in = true;
        let (blocks, bs) = ini.read_capacity()?;
        ini.num_blocks = blocks;
        ini.block_size = bs;
        Ok(ini)
    }

    /// Target capacity in blocks, discovered at login.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Target block size in bytes, discovered at login.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    fn next_itt(&mut self) -> u32 {
        self.itt = self.itt.wrapping_add(1);
        self.itt
    }

    fn send(&self, pdu: &Pdu) -> Result<(), IscsiError> {
        self.transport.send(&pdu.to_bytes())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Pdu, IscsiError> {
        let pdu = Pdu::from_bytes(&self.transport.recv()?)?;
        self.exp_stat_sn = pdu.bhs.exp_stat_sn.wrapping_add(1);
        Ok(pdu)
    }

    fn command_bhs(&mut self, cdb: Cdb, edtl: u32) -> Bhs {
        let mut bhs = Bhs::new(Opcode::ScsiCommand);
        bhs.itt = self.next_itt();
        bhs.cmd_sn = self.cmd_sn;
        self.cmd_sn = self.cmd_sn.wrapping_add(1);
        bhs.exp_stat_sn = self.exp_stat_sn;
        bhs.dword5 = edtl;
        bhs.cdb = cdb.to_bytes();
        bhs
    }

    fn expect_response(&mut self, itt: u32) -> Result<(ScsiStatus, Vec<u8>), IscsiError> {
        let resp = self.recv()?;
        if resp.bhs.opcode != Opcode::ScsiResponse {
            return Err(IscsiError::Protocol(format!(
                "expected scsi response, got {:?}",
                resp.bhs.opcode
            )));
        }
        if resp.bhs.itt != itt {
            return Err(IscsiError::Protocol(format!(
                "response itt {} does not match command itt {itt}",
                resp.bhs.itt
            )));
        }
        let status = ScsiStatus::from_wire(resp.bhs.flags & 0x3f)?;
        Ok((status, resp.data))
    }

    fn check_good(status: ScsiStatus, sense: Vec<u8>) -> Result<(), IscsiError> {
        match status {
            ScsiStatus::Good => Ok(()),
            ScsiStatus::CheckCondition => Err(IscsiError::CheckCondition(
                String::from_utf8_lossy(&sense).into_owned(),
            )),
            ScsiStatus::Busy => Err(IscsiError::CheckCondition("target busy".into())),
        }
    }

    fn ensure_logged_in(&self) -> Result<(), IscsiError> {
        if self.logged_in {
            Ok(())
        } else {
            Err(IscsiError::NotLoggedIn)
        }
    }

    /// Issues `READ CAPACITY(10)`, returning `(num_blocks, block_size)`.
    ///
    /// # Errors
    ///
    /// [`IscsiError::CheckCondition`] if the target reports an error;
    /// transport and protocol errors otherwise.
    pub(crate) fn read_capacity(&mut self) -> Result<(u64, u32), IscsiError> {
        self.ensure_logged_in()?;
        let bhs = self.command_bhs(Cdb::ReadCapacity10, 8);
        let itt = bhs.itt;
        self.send(&Pdu {
            bhs,
            data: Vec::new(),
        })?;
        let data_in = self.recv()?;
        if data_in.bhs.opcode != Opcode::DataIn || data_in.data.len() != 8 {
            return Err(IscsiError::Protocol(
                "malformed read-capacity data-in".into(),
            ));
        }
        let max_lba = u32::from_be_bytes(data_in.data[0..4].try_into().unwrap());
        let bs = u32::from_be_bytes(data_in.data[4..8].try_into().unwrap());
        let (status, sense) = self.expect_response(itt)?;
        Self::check_good(status, sense)?;
        Ok((max_lba as u64 + 1, bs))
    }

    /// Reads `count` blocks starting at `lba`.
    ///
    /// The target may deliver the payload as several Data-In PDUs
    /// (bounded by the negotiated segment size); this method reassembles
    /// them in offset order.
    ///
    /// # Errors
    ///
    /// [`IscsiError::CheckCondition`] for out-of-range reads; transport
    /// and protocol errors otherwise.
    pub fn read_blocks(&mut self, lba: u64, count: u16) -> Result<Vec<u8>, IscsiError> {
        self.ensure_logged_in()?;
        let edtl = count as u32 * self.block_size;
        let bhs = self.command_bhs(
            Cdb::Read10 {
                lba: lba as u32,
                blocks: count,
            },
            edtl,
        );
        let itt = bhs.itt;
        self.send(&Pdu {
            bhs,
            data: Vec::new(),
        })?;
        let mut payload = vec![0u8; edtl as usize];
        loop {
            let pdu = self.recv()?;
            match pdu.bhs.opcode {
                Opcode::DataIn => {
                    if pdu.bhs.itt != itt {
                        return Err(IscsiError::Protocol("data-in for wrong task".into()));
                    }
                    let off = pdu.bhs.dword5 as usize;
                    if off + pdu.data.len() > payload.len() {
                        return Err(IscsiError::Protocol(
                            "data-in segment exceeds transfer length".into(),
                        ));
                    }
                    payload[off..off + pdu.data.len()].copy_from_slice(&pdu.data);
                    if pdu.bhs.is_final() {
                        let (status, sense) = self.expect_response(itt)?;
                        Self::check_good(status, sense)?;
                        return Ok(payload);
                    }
                }
                Opcode::ScsiResponse => {
                    // Error response without data phase.
                    let status = ScsiStatus::from_wire(pdu.bhs.flags & 0x3f)?;
                    Self::check_good(status, pdu.data)?;
                    return Err(IscsiError::Protocol(
                        "good status without final data-in".into(),
                    ));
                }
                other => {
                    return Err(IscsiError::Protocol(format!(
                        "unexpected {other:?} during read"
                    )))
                }
            }
        }
    }

    /// Writes `data` (a whole number of blocks) starting at `lba`, using
    /// immediate data.
    ///
    /// # Errors
    ///
    /// [`IscsiError::Protocol`] if `data` is not a whole number of
    /// blocks; [`IscsiError::CheckCondition`] for out-of-range writes.
    pub fn write_blocks(&mut self, lba: u64, data: &[u8]) -> Result<(), IscsiError> {
        self.ensure_logged_in()?;
        let bs = self.block_size as usize;
        if bs == 0 || !data.len().is_multiple_of(bs) || data.is_empty() {
            return Err(IscsiError::Protocol(format!(
                "write of {} bytes is not a positive multiple of the {bs}-byte block size",
                data.len()
            )));
        }
        let blocks = (data.len() / bs) as u16;
        let bhs = self.command_bhs(
            Cdb::Write10 {
                lba: lba as u32,
                blocks,
            },
            data.len() as u32,
        );
        let itt = bhs.itt;
        self.send(&Pdu {
            bhs,
            data: data.to_vec(),
        })?;
        let (status, sense) = self.expect_response(itt)?;
        Self::check_good(status, sense)
    }

    /// Issues `SYNCHRONIZE CACHE(10)` (maps to a device flush).
    ///
    /// # Errors
    ///
    /// Propagates target-side flush failures as check conditions.
    pub fn synchronize_cache(&mut self) -> Result<(), IscsiError> {
        self.ensure_logged_in()?;
        let bhs = self.command_bhs(Cdb::SynchronizeCache10, 0);
        let itt = bhs.itt;
        self.send(&Pdu {
            bhs,
            data: Vec::new(),
        })?;
        let (status, sense) = self.expect_response(itt)?;
        Self::check_good(status, sense)
    }

    /// Closes the session with a logout exchange.
    ///
    /// # Errors
    ///
    /// Transport and protocol errors; the session is unusable afterwards
    /// either way.
    pub fn logout(mut self) -> Result<(), IscsiError> {
        self.ensure_logged_in()?;
        let mut pdu = Pdu::new(Opcode::LogoutRequest);
        pdu.bhs.itt = self.next_itt();
        self.send(&pdu)?;
        let resp = self.recv()?;
        if resp.bhs.opcode != Opcode::LogoutResponse {
            return Err(IscsiError::Protocol(format!(
                "expected logout response, got {:?}",
                resp.bhs.opcode
            )));
        }
        self.logged_in = false;
        Ok(())
    }
}

impl<T> std::fmt::Debug for Initiator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Initiator")
            .field("logged_in", &self.logged_in)
            .field("num_blocks", &self.num_blocks)
            .field("block_size", &self.block_size)
            .finish_non_exhaustive()
    }
}
