//! The interkernel wire protocol.
//!
//! V kernels exchange *interkernel packets* at the raw data-link level —
//! no transport layer underneath (§3 of the paper: "Interkernel packets
//! use the 'raw' Ethernet data link level"; reliability comes from the
//! Send/Reply exchange itself). This crate defines the packet vocabulary
//! and a hand-rolled binary codec:
//!
//! * a fixed [`HEADER_LEN`]-byte header (kind, flags, sequence number,
//!   source/destination pids, three kind-specific words, checksum), so a
//!   32-byte message rides in a 64-byte datagram exactly as the paper's
//!   packet accounting assumes;
//! * typed per-kind bodies ([`PacketBody`], one struct per kind): message
//!   exchange (`Send`, `Reply`, `ReplyPending`, `Nack`, `Forward`), bulk
//!   transfer (`MoveToData`, `MoveFromReq`, `MoveFromData`, `TransferAck`)
//!   and naming (`GetPidReq`, `GetPidReply`) — decoded exactly once, so
//!   kernel handlers consume structs rather than loose header words;
//! * a 32-bit word-wide [`checksum`] over the whole packet, which is how
//!   receivers detect the corruption injected by the simulated medium
//!   (including the §5.4 collision-bug corruptions). Two lanes of
//!   bijective multiply-rotate steps take alternate aligned 4-byte words,
//!   so any corruption confined to one word — every single-byte flip —
//!   is always detected; a wider scramble slips through only on a 32-bit
//!   collision. The medium's link-level CRC is charged into its fixed per-frame
//!   latency, so this checksum is engine cost only, never simulated time.

pub mod codec;
pub mod packet;

pub use codec::{checksum, decode, encode, WireError};
pub use packet::{
    ForwardBody, GetPidReply, GetPidReq, MoveFromData, MoveFromReq, MoveToData, MsgBytes, Packet,
    PacketBody, PacketKind, ReplyBody, SendBody, TransferAck, TransferStatus, HEADER_LEN, MSG_LEN,
};
